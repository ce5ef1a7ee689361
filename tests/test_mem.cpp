#include <gtest/gtest.h>

#include <set>

#include "mem/checkpoint.hpp"
#include "mem/engine.hpp"
#include "util/rng.hpp"

namespace dmv::mem {
namespace {

using storage::Key;
using storage::Row;
using storage::TableId;
using txn::TxnAbort;


// GCC 12 cannot copy braced-init-list temporaries across co_await points
// (coroutine frame bug); K()/R() build keys/rows through a normal call.
inline Key K(storage::Value a) { return Key{std::move(a)}; }
inline Row R(storage::Value a, storage::Value b) {
  return Row{std::move(a), std::move(b)};
}
inline Row R(storage::Value a, storage::Value b, storage::Value c) {
  return Row{std::move(a), std::move(b), std::move(c)};
}

void demo_schema(storage::Database& db) {
  db.add_table("acct",
               storage::Schema({storage::int_col("id"),
                                storage::int_col("balance"),
                                storage::char_col("owner", 16)}),
               storage::IndexDef{"pk", {0}, true},
               {storage::IndexDef{"by_owner", {2}, false}});
  db.add_table("log",
               storage::Schema({storage::int_col("seq"),
                                storage::int_col("acct")}),
               storage::IndexDef{"pk", {0}, true});
}

// A master wired to N slaves through direct on_write_set delivery (the
// networked path is exercised in core/integration tests).
struct Cluster {
  sim::Simulation sim;
  std::unique_ptr<MemEngine> master;
  std::vector<std::unique_ptr<MemEngine>> slaves;

  explicit Cluster(int nslaves, MemEngine::Config cfg = {},
                   const SchemaFn& schema = demo_schema) {
    master = std::make_unique<MemEngine>(sim, "master", cfg);
    master->build_schema(schema);
    std::set<TableId> all;
    for (TableId t = 0; t < master->db().table_count(); ++t) all.insert(t);
    master->set_master_tables(all);
    for (int i = 0; i < nslaves; ++i) {
      auto s = std::make_unique<MemEngine>(
          sim, "slave" + std::to_string(i), cfg);
      s->build_schema(schema);
      slaves.push_back(std::move(s));
    }
    master->set_broadcast_fn([this](const txn::WriteSetPtr& ws) {
      for (auto& s : slaves) s->on_write_set(ws);
    });
  }

  // Run one update transaction to completion on the master.
  template <typename Body>
  void run_update(Body&& body) {
    sim.spawn([](Cluster& c, Body body) -> sim::Task<> {
      auto txn = c.master->begin_update();
      co_await body(*c.master, *txn);
      co_await c.master->precommit(*txn);
      c.master->finish_commit(*txn);
    }(*this, std::forward<Body>(body)));
    sim.run();
  }
};

sim::Task<> insert_acct(MemEngine& eng, txn::TxnCtx& txn, int64_t id,
                        int64_t bal, const char* owner) {
  Row row{id, bal, std::string(owner)};
  const bool ok = co_await eng.insert(txn, 0, row);
  EXPECT_TRUE(ok);
}

// Engine conformance under page-2PL: version-numbered write-sets,
// reader/version semantics and replication behavior.
TEST(MemEngineCc, MasterInsertVisibleLocally) {
  Cluster c(0);
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  EXPECT_EQ(c.master->db().table(0).row_count(), 1u);
  EXPECT_EQ(c.master->version()[0], 1u);
  EXPECT_EQ(c.master->stats().update_commits, 1u);
}

TEST(MemEngineCc, WriteSetReachesSlaveLazily) {
  Cluster c(1);
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  auto& slave = *c.slaves[0];
  // Received but not applied: lazy.
  EXPECT_EQ(slave.received_version()[0], 1u);
  EXPECT_EQ(slave.db().table(0).row_count(), 0u);
  EXPECT_EQ(slave.pending_mod_count(), 1u);

  // A tagged read materializes the snapshot.
  c.sim.spawn([](Cluster& c) -> sim::Task<> {
    auto txn = c.slaves[0]->begin_read(c.slaves[0]->received_version());
    auto row = co_await c.slaves[0]->get(*txn, 0, K(int64_t{1}));
    EXPECT_TRUE(row.has_value());
    EXPECT_EQ(std::get<int64_t>((*row)[1]), 100);
    c.slaves[0]->finish_read(*txn);
  }(c));
  c.sim.run();
  EXPECT_EQ(slave.db().table(0).row_count(), 1u);
  EXPECT_EQ(slave.stats().mods_applied, 1u);
  EXPECT_TRUE(c.master->db().pages_equal(slave.db()));
}

TEST(MemEngineCc, ReaderWaitsForWriteSetArrival) {
  Cluster c(1);
  // Delay delivery: buffer the write-set and deliver at t=500.
  std::vector<txn::WriteSetPtr> buffered;
  c.master->set_broadcast_fn(
      [&](const txn::WriteSetPtr& ws) { buffered.push_back(ws); });
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  sim::Time read_done = -1;
  c.sim.spawn([](Cluster& c, sim::Time& done) -> sim::Task<> {
    // Tag {1, 0}: the slave hasn't received version 1 yet — must wait.
    auto txn = c.slaves[0]->begin_read({1, 0});
    auto row = co_await c.slaves[0]->get(*txn, 0, K(int64_t{1}));
    EXPECT_TRUE(row.has_value());
    done = c.sim.now();
  }(c, read_done));
  const sim::Time deliver_at = c.sim.now() + 500;
  c.sim.schedule_at(deliver_at, [&] {
    for (auto& ws : buffered) c.slaves[0]->on_write_set(ws);
  });
  c.sim.run();
  EXPECT_GE(read_done, deliver_at);
}

TEST(MemEngineCc, VersionConflictAbortsOldReader) {
  Cluster c(1);
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await m.update(txn, 0, K(int64_t{1}),
                      [](Row& r) { r[1] = int64_t{150}; });
  });
  auto& slave = *c.slaves[0];
  // New reader at version 2 pulls the page forward.
  c.sim.spawn([](MemEngine& s) -> sim::Task<> {
    auto txn = s.begin_read({2, 0});
    auto row = co_await s.get(*txn, 0, K(int64_t{1}));
    EXPECT_EQ(std::get<int64_t>((*row)[1]), 150);
  }(slave));
  c.sim.run();
  // Old reader at version 1 touches the same (now newer) page: abort.
  bool aborted = false;
  c.sim.spawn([](MemEngine& s, bool& aborted) -> sim::Task<> {
    auto txn = s.begin_read({1, 0});
    try {
      co_await s.get(*txn, 0, K(int64_t{1}));
    } catch (const TxnAbort& e) {
      aborted = e.reason == TxnAbort::Reason::VersionConflict;
    }
  }(slave, aborted));
  c.sim.run();
  EXPECT_TRUE(aborted);
  EXPECT_EQ(slave.stats().version_aborts, 1u);
}

TEST(MemEngineCc, SnapshotIgnoresNewerCommits) {
  Cluster c(1);
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await m.update(txn, 0, K(int64_t{1}),
                      [](Row& r) { r[1] = int64_t{999}; });
  });
  // Reader tagged with the OLD version, arriving before anyone applied the
  // new one, must see the old balance (mods <= tag only).
  c.sim.spawn([](MemEngine& s) -> sim::Task<> {
    auto txn = s.begin_read({1, 0});
    auto row = co_await s.get(*txn, 0, K(int64_t{1}));
    EXPECT_TRUE(row.has_value());
    EXPECT_EQ(std::get<int64_t>((*row)[1]), 100);
  }(*c.slaves[0]));
  c.sim.run();
  // And the page is left at version 1, not 2.
  EXPECT_EQ(c.slaves[0]->db().table(0).meta(0).version, 1u);
}

TEST(MemEngineCc, RollbackRestoresBytesAndIndexes) {
  Cluster c(0);
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  storage::Page before = c.master->db().table(0).page(0);
  c.sim.spawn([](Cluster& c) -> sim::Task<> {
    auto txn = c.master->begin_update();
    co_await c.master->insert(*txn, 0, R(int64_t{2}, int64_t{5}, std::string("bob")));
    co_await c.master->update(*txn, 0, K(int64_t{1}),
                              [](Row& r) { r[1] = int64_t{0}; });
    c.master->rollback(*txn);
  }(c));
  c.sim.run();
  EXPECT_TRUE(before == c.master->db().table(0).page(0));
  EXPECT_FALSE(c.master->db().table(0).pk_find(K(int64_t{2})).has_value());
  auto rid = c.master->db().table(0).pk_find(K(int64_t{1}));
  ASSERT_TRUE(rid.has_value());
  EXPECT_EQ(std::get<int64_t>(c.master->db().table(0).read_row(*rid)[1]),
            100);
  // No version was produced.
  EXPECT_EQ(c.master->version()[0], 1u);
}

class MemConvergence : public ::testing::TestWithParam<uint64_t> {};

// Every index of every table, as in-order (key, RowId) entries.
std::vector<std::vector<std::pair<std::string, storage::RowId>>> all_entries(
    const storage::Database& db) {
  std::vector<std::vector<std::pair<std::string, storage::RowId>>> out;
  for (TableId t = 0; t < db.table_count(); ++t) {
    const storage::Table& tb = db.table(t);
    for (int i = -1; i < int(tb.secondary_count()); ++i) {
      out.emplace_back();
      tb.index_tree(i).scan_all([&](std::string_view k, storage::RowId r) {
        out.back().emplace_back(k, r);
        return true;
      });
    }
  }
  return out;
}

TEST_P(MemConvergence, ConvergenceUnderRandomWorkload) {
  Cluster c(2);
  util::Rng rng(GetParam());
  // 200 random update txns; then force-apply everything on slaves and
  // compare pages, row counts and every index entry.
  for (int i = 0; i < 200; ++i) {
    const int op = int(rng.below(5));
    const int64_t id = rng.between(1, 60);
    c.sim.spawn([](Cluster& c, int op, int64_t id, int64_t val,
                   int64_t seq) -> sim::Task<> {
      auto txn = c.master->begin_update();
      if (op == 0) {
        co_await c.master->insert(*txn, 0,
                                  R(id, val, "o" + std::to_string(id)));
        co_await c.master->insert(*txn, 1, R(seq, id));
      } else if (op == 1) {
        co_await c.master->update(*txn, 0, K(id),
                                  [val](Row& r) { r[1] = val; });
      } else if (op == 2) {
        co_await c.master->remove(*txn, 0, K(id));
      } else if (op == 3) {
        // A secondary-key change: the row moves within by_owner.
        co_await c.master->update(*txn, 0, K(id), [val](Row& r) {
          r[2] = "w" + std::to_string(val % 7);
        });
      } else {
        // Delete and re-insert the same key in one transaction.
        co_await c.master->remove(*txn, 0, K(id));
        co_await c.master->insert(*txn, 0,
                                  R(id, val, "r" + std::to_string(val % 5)));
      }
      co_await c.master->precommit(*txn);
      c.master->finish_commit(*txn);
    }(c, op, id, rng.between(0, 1000), int64_t(i + 1000)));
    c.sim.run();
  }
  for (auto& s : c.slaves) {
    c.sim.spawn([](MemEngine& s) -> sim::Task<> {
      for (TableId t = 0; t < 2; ++t)
        co_await s.apply_pending(t, s.received_version()[t]);
    }(*s));
    c.sim.run();
    EXPECT_TRUE(c.master->db().pages_equal(s->db()));
    for (TableId t = 0; t < 2; ++t)
      EXPECT_EQ(c.master->db().table(t).row_count(),
                s->db().table(t).row_count());
    EXPECT_EQ(all_entries(c.master->db()), all_entries(s->db()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MemConvergence, ::testing::Values(4242, 1, 77, 31337, 999),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return std::to_string(info.param);
    });

TEST(MemEngineCc, ScanWithFilterAndLimit) {
  Cluster c(1);
  for (int i = 0; i < 30; ++i) {
    c.run_update([i](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
      co_await insert_acct(m, txn, i, (i % 3) * 100,
                           i % 2 ? "odd" : "even");
    });
  }
  c.sim.spawn([](Cluster& c) -> sim::Task<> {
    auto txn = c.slaves[0]->begin_read(c.slaves[0]->received_version());
    api::ScanSpec spec;
    spec.lo = K(int64_t{5});
    spec.hi = K(int64_t{25});
    spec.limit = 4;
    spec.filter = [](const storage::RowRef& r) {
      return r.i(1) == 0;  // balance 0: ids % 3 == 0
    };
    auto rows = co_await c.slaves[0]->scan(*txn, 0, spec);
    EXPECT_EQ(rows.size(), 4u);
    if (rows.size() != 4u) co_return;
    EXPECT_EQ(rows[0].i(0), 6);
    EXPECT_EQ(rows[3].i(0), 15);
  }(c));
  c.sim.run();
}

// A zero-limit scan walks no index entry, on the one-pass path (slave
// read) and the two-pass one (master-served read, update transaction):
// it returns nothing, charges no index_scan_entry and touches no page,
// with or without a filter.
TEST(MemEngineCc, ZeroLimitScanWalksNothing) {
  Cluster c(1);
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    for (int64_t i = 0; i < 10; ++i)
      co_await insert_acct(m, txn, i, i, "zero");
  });
  c.sim.spawn([](Cluster& c) -> sim::Task<> {
    MemEngine& slave = *c.slaves[0];
    co_await slave.apply_pending(0, slave.received_version()[0]);
    for (const bool filtered : {false, true}) {
      for (int path = 0; path < 3; ++path) {
        MemEngine& eng = path == 0 ? slave : *c.master;
        api::ScanSpec spec;
        spec.limit = 0;
        if (filtered)
          spec.filter = [](const storage::RowRef&) { return true; };
        auto txn = path == 0   ? eng.begin_read(eng.received_version())
                   : path == 1 ? eng.begin_read(eng.version())
                               : eng.begin_update();
        const uint64_t touches = eng.cache().hits() + eng.cache().faults();
        const sim::Time t0 = c.sim.now();
        const storage::Rows rows = co_await eng.scan(*txn, 0, spec);
        EXPECT_TRUE(rows.empty()) << "path " << path;
        EXPECT_EQ(c.sim.now() - t0,
                  eng.costs().mem_cpu_read_query + eng.costs().index_lookup)
            << "path " << path << " filtered " << filtered;
        EXPECT_EQ(eng.cache().hits() + eng.cache().faults(), touches);
        if (path == 2)
          eng.rollback(*txn);
        else
          eng.finish_read(*txn);
      }
    }
  }(c));
  c.sim.run();
}

// A table of ~1 KB rows (8 to a page) with a secondary index on a
// low-cardinality column, so scans cross many pages in both orders.
void wide_schema(storage::Database& db) {
  db.add_table("wide",
               storage::Schema({storage::int_col("id"),
                                storage::int_col("grp"),
                                storage::char_col("pad", 1000)}),
               storage::IndexDef{"pk", {0}, true},
               {storage::IndexDef{"by_grp", {1}, false}});
}

// What a scan did, as the differential test compares it.
struct ScanOutcome {
  std::vector<std::byte> bytes;  // the returned rows' packed images
  sim::Time charged = 0;         // virtual time from call to return
  bool aborted = false;
  uint64_t touches = 0;  // cache touches; on abort, the entry it hit
};

// The two-pass scan a slave-served read used before the one-pass walk:
// collect the range, then check, touch and read it hit by hit. On a
// version abort the read pays only the per-query overhead.
ScanOutcome two_pass_scan(MemEngine& eng, const txn::TxnCtx& txn,
                          TableId t, const api::ScanSpec& spec) {
  const txn::CostModel& costs = eng.costs();
  const storage::Table& tb = eng.db().table(t);
  const uint64_t touches0 = eng.cache().hits() + eng.cache().faults();
  ScanOutcome o;
  const txn::ScanHits hits = txn::collect_scan(tb, spec);
  sim::Time cost = costs.index_lookup +
                   costs.index_scan_entry * sim::Time(hits.rids.size());
  storage::Rows out(tb.schema_ptr());
  for (const storage::RowId rid : hits.rids) {
    if (out.size() >= spec.limit) break;
    if (tb.meta(rid.page).version > txn.read_version()[t]) {
      ++eng.stats().version_aborts;
      o.aborted = true;
      break;
    }
    cost += eng.cache().touch({t, rid.page}) + costs.row_read;
    const auto image = tb.row_image(rid);
    if (!spec.filter || spec.filter(storage::RowRef(tb.schema(), image.data())))
      out.push_back(image);
  }
  o.charged = costs.mem_cpu_read_query + (o.aborted ? 0 : cost);
  if (!o.aborted) o.bytes.assign(out.bytes().begin(), out.bytes().end());
  o.touches = eng.cache().hits() + eng.cache().faults() - touches0;
  return o;
}

sim::Task<> one_pass_scan(sim::Simulation& sim, MemEngine& eng, TableId t,
                          api::ScanSpec spec, ScanOutcome& o) {
  auto txn = eng.begin_read(eng.received_version());
  const uint64_t touches0 = eng.cache().hits() + eng.cache().faults();
  const sim::Time t0 = sim.now();
  try {
    const storage::Rows rows = co_await eng.scan(*txn, t, std::move(spec));
    o.bytes.assign(rows.bytes().begin(), rows.bytes().end());
  } catch (const TxnAbort& e) {
    EXPECT_EQ(e.reason, TxnAbort::Reason::VersionConflict);
    o.aborted = true;
  }
  o.charged = sim.now() - t0;
  o.touches = eng.cache().hits() + eng.cache().faults() - touches0;
}

// Differential test of the one-pass replica scan against the two-pass
// reference above, on twin slaves holding the same pages: random bounds,
// orders, limits and filters, with random pages pushed past the read's
// tag. Rows, charge, cache side effects and aborts must all agree.
TEST(MemEngineCc, OnePassScanMatchesTwoPassReference) {
  MemEngine::Config cfg;
  cfg.cache_pages = 6;  // far below the table: evictions shape the order
  Cluster c(2, cfg, wide_schema);
  util::Rng rng(77);
  for (int batch = 0; batch < 8; ++batch) {
    c.run_update([batch](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
      for (int64_t i = batch * 20; i < batch * 20 + 20; ++i) {
        const Row row = R(i, i % 7, "pad" + std::to_string(i * 37));
        co_await m.insert(txn, 0, row);
      }
    });
  }
  // Regroup and delete some rows: holes and moved secondary entries.
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    for (int64_t i = 3; i < 160; i += 11) {
      const std::function<void(Row&)> regroup = [](Row& r) {
        r[1] = std::get<int64_t>(r[1]) + 2;
      };
      co_await m.update(txn, 0, K(i), regroup);
    }
    for (int64_t i = 5; i < 160; i += 17) co_await m.remove(txn, 0, K(i));
  });
  MemEngine& a = *c.slaves[0];
  MemEngine& b = *c.slaves[1];
  c.sim.spawn([](MemEngine& a, MemEngine& b) -> sim::Task<> {
    co_await a.apply_pending(0, a.received_version()[0]);
    co_await b.apply_pending(0, b.received_version()[0]);
  }(a, b));
  c.sim.run();
  storage::Table& ta = a.db().table(0);
  storage::Table& tb = b.db().table(0);
  ASSERT_GT(ta.page_count(), 15u);
  const uint64_t tag = a.received_version()[0];
  ASSERT_EQ(tag, b.received_version()[0]);

  const size_t limits[] = {0, 1, 2, 5, 17, SIZE_MAX};
  int aborts = 0;
  int rows_seen = 0;
  for (int i = 0; i < 400; ++i) {
    api::ScanSpec spec;
    if (rng.chance(0.5)) {
      if (rng.chance(0.7)) spec.lo = K(rng.between(-5, 165));
      if (rng.chance(0.7))
        spec.hi = K((spec.lo ? std::get<int64_t>((*spec.lo)[0]) : 0) +
                    rng.between(0, 90));
    } else {
      spec.index = 0;
      const int64_t g = rng.between(0, 8);
      if (rng.chance(0.7)) spec.lo = K(g);
      if (rng.chance(0.7)) spec.hi = K(g + rng.between(0, 3));
    }
    spec.reverse = rng.chance(0.3);
    spec.limit = limits[rng.below(6)];
    if (rng.chance(0.5)) {
      const int64_t m = rng.between(2, 4);
      spec.filter = [m](const storage::RowRef& r) { return r.i(0) % m != 1; };
    }
    for (storage::PageNo p = 0; p < ta.page_count(); ++p)
      ta.meta(p).version = tb.meta(p).version = std::min(tag, uint64_t(p));
    if (rng.chance(0.5)) {
      for (uint64_t n = rng.between(1, 3); n > 0; --n) {
        const auto p = storage::PageNo(rng.below(ta.page_count()));
        ta.meta(p).version = tb.meta(p).version = tag + 1;
      }
    }

    ScanOutcome got;
    c.sim.spawn(one_pass_scan(c.sim, a, 0, spec, got));
    c.sim.run();
    const ScanOutcome want =
        two_pass_scan(b, *b.begin_read(b.received_version()), 0, spec);
    ASSERT_EQ(got.aborted, want.aborted) << "spec " << i;
    ASSERT_EQ(got.touches, want.touches) << "spec " << i;
    ASSERT_EQ(got.charged, want.charged) << "spec " << i;
    ASSERT_EQ(got.bytes, want.bytes) << "spec " << i;
    ASSERT_EQ(a.cache().hits(), b.cache().hits()) << "spec " << i;
    ASSERT_EQ(a.cache().faults(), b.cache().faults()) << "spec " << i;
    ASSERT_EQ(a.cache().hot_pages(cfg.cache_pages),
              b.cache().hot_pages(cfg.cache_pages))
        << "spec " << i;
    ASSERT_EQ(a.stats().version_aborts, b.stats().version_aborts)
        << "spec " << i;
    aborts += got.aborted;
    rows_seen += got.bytes.empty() ? 0 : 1;
  }
  // The specs reached both outcomes often.
  EXPECT_GT(aborts, 40);
  EXPECT_GT(rows_seen, 150);
}

TEST(MemEngineCc, SecondaryIndexScanOnSlave) {
  Cluster c(1);
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 10, "zoe");
    co_await insert_acct(m, txn, 2, 20, "amy");
    co_await insert_acct(m, txn, 3, 30, "amy");
  });
  c.sim.spawn([](Cluster& c) -> sim::Task<> {
    auto txn = c.slaves[0]->begin_read(c.slaves[0]->received_version());
    api::ScanSpec spec;
    spec.index = 0;  // by_owner
    spec.lo = Key{std::string("amy")};
    spec.hi = Key{std::string("amy")};
    auto rows = co_await c.slaves[0]->scan(*txn, 0, spec);
    EXPECT_EQ(rows.size(), 2u);
  }(c));
  c.sim.run();
}

TEST(MemEngineCc, PromoteSlaveBecomesMaster) {
  Cluster c(2);
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  auto& s0 = *c.slaves[0];
  c.sim.spawn([](MemEngine& s) -> sim::Task<> {
    std::set<TableId> both{0, 1};
    co_await s.promote(both);
  }(s0));
  c.sim.run();
  EXPECT_TRUE(s0.masters(0));
  EXPECT_EQ(s0.version()[0], 1u);
  // New master can now execute updates, continuing the version sequence.
  s0.set_broadcast_fn([&](const txn::WriteSetPtr& ws) {
    c.slaves[1]->on_write_set(ws);
  });
  c.sim.spawn([](Cluster& c, MemEngine& s) -> sim::Task<> {
    auto txn = s.begin_update();
    co_await s.update(*txn, 0, K(int64_t{1}),
                      [](Row& r) { r[1] = int64_t{500}; });
    co_await s.precommit(*txn);
    s.finish_commit(*txn);
    (void)c;
  }(c, s0));
  c.sim.run();
  EXPECT_EQ(s0.version()[0], 2u);
  EXPECT_EQ(c.slaves[1]->received_version()[0], 2u);
}

TEST(MemEngineCc, DiscardModsAboveCleansPartialPropagation) {
  Cluster c(1);
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 2, 200, "bob");
  });
  auto& slave = *c.slaves[0];
  EXPECT_EQ(slave.received_version()[0], 2u);
  // Scheduler only confirmed version 1 before the master died.
  slave.discard_mods_above({1, 0});
  EXPECT_EQ(slave.received_version()[0], 1u);
  EXPECT_EQ(slave.pending_mod_count(), 1u);
  c.sim.spawn([](MemEngine& s) -> sim::Task<> {
    co_await s.apply_pending(0, 1);
  }(slave));
  c.sim.run();
  EXPECT_TRUE(slave.db().table(0).pk_find(K(int64_t{1})).has_value());
  EXPECT_FALSE(slave.db().table(0).pk_find(K(int64_t{2})).has_value());
}

TEST(MemEngineCc, BroadcastSharesOneWriteSetAcrossReplicas) {
  Cluster c(3);
  std::vector<std::weak_ptr<const txn::WriteSet>> sent;  // by version - 1
  c.master->set_broadcast_fn([&](const txn::WriteSetPtr& ws) {
    sent.push_back(ws);
    for (auto& s : c.slaves) s->on_write_set(ws);
  });
  // Four commits, each one mod on each table.
  for (int64_t i = 1; i <= 4; ++i) {
    c.run_update([i](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
      co_await insert_acct(m, txn, i, i, "x");
      co_await m.insert(txn, 1, R(i, i));
    });
  }
  ASSERT_EQ(sent.size(), 4u);
  // One payload per commit, and only the replicas' queues hold it: every
  // queued mod points into it.
  for (auto& s : c.slaves)
    for (TableId t = 0; t < 2; ++t) {
      ASSERT_EQ(s->pending(t).size(), 4u);
      for (const MemEngine::PendingMod& p : s->pending(t)) {
        const txn::WriteSetPtr ws = sent[p->version - 1].lock();
        EXPECT_FALSE(p.owner_before(ws) || ws.owner_before(p));
        EXPECT_EQ(p.get(), &ws->mods[t]);
        EXPECT_EQ(p->pid.table, t);
      }
    }
  for (const auto& ws : sent) EXPECT_EQ(ws.use_count(), 3 * 2);

  // Confirmed {2, 3}: each replica drops exactly the mods above it.
  for (auto& s : c.slaves) s->discard_mods_above({2, 3});
  for (auto& s : c.slaves) {
    std::vector<uint64_t> left[2];
    for (TableId t = 0; t < 2; ++t)
      for (const MemEngine::PendingMod& p : s->pending(t))
        left[t].push_back(p->version);
    EXPECT_EQ(left[0], (std::vector<uint64_t>{1, 2}));
    EXPECT_EQ(left[1], (std::vector<uint64_t>{1, 2, 3}));
  }
  EXPECT_EQ(sent[2].use_count(), 3);  // only table 1's mod of version 3
  EXPECT_TRUE(sent[3].expired());

  // Applying the rest releases every payload.
  for (auto& s : c.slaves) {
    c.sim.spawn([](MemEngine& s) -> sim::Task<> {
      for (TableId t = 0; t < 2; ++t)
        co_await s.apply_pending(t, s.received_version()[t]);
    }(*s));
    c.sim.run();
    EXPECT_EQ(s->pending_mod_count(), 0u);
    EXPECT_TRUE(
        s->db().table(1).pk_find(K(int64_t{3})).has_value());
    EXPECT_FALSE(
        s->db().table(0).pk_find(K(int64_t{3})).has_value());
  }
  for (const auto& ws : sent) EXPECT_TRUE(ws.expired());
}

// A write-set lives exactly as long as a queued mod of it: it dies when
// the last replica applies or discards the last of its mods, and not a
// step earlier. The master keeps no reference once it has broadcast.
TEST(MemEngineCc, WriteSetDiesWithItsLastQueuedMod) {
  Cluster c(2);
  std::weak_ptr<const txn::WriteSet> sent;
  c.master->set_broadcast_fn([&](const txn::WriteSetPtr& ws) {
    sent = ws;
    for (auto& s : c.slaves) s->on_write_set(ws);
  });
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 1, "x");
    co_await m.insert(txn, 1, R(int64_t{1}, int64_t{1}));
  });
  ASSERT_EQ(sent.lock()->mods.size(), 2u);
  EXPECT_EQ(sent.use_count(), 4);  // two tables on two replicas
  auto apply = [&](MemEngine& s, TableId t) {
    c.sim.spawn([](MemEngine& s, TableId t) -> sim::Task<> {
      co_await s.apply_pending(t, s.received_version()[t]);
    }(s, t));
    c.sim.run();
  };
  MemEngine& a = *c.slaves[0];
  MemEngine& b = *c.slaves[1];
  apply(a, 0);
  EXPECT_EQ(sent.use_count(), 3);
  b.discard_mods_above({1, 0});  // table 1's mod
  EXPECT_EQ(sent.use_count(), 2);
  apply(a, 1);
  EXPECT_EQ(sent.use_count(), 1);
  EXPECT_FALSE(sent.expired());
  apply(b, 0);
  EXPECT_TRUE(sent.expired());
  EXPECT_EQ(a.pending_mod_count() + b.pending_mod_count(), 0u);
}

TEST(MemEngine, InstallPageBringsStaleNodeCurrent) {
  Cluster c(2);
  for (int i = 0; i < 20; ++i) {
    c.run_update([i](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
      co_await insert_acct(m, txn, i, i * 10, "x");
    });
  }
  // slaves[0] applies everything; slaves[1] plays "stale joiner": wipe its
  // pending queue, then install pages newer than its (zero) versions.
  auto& support = *c.slaves[0];
  c.sim.spawn([](MemEngine& s) -> sim::Task<> {
    co_await s.apply_pending(0, s.received_version()[0]);
  }(support));
  c.sim.run();

  MemEngine joiner(c.sim, "joiner", {});
  joiner.build_schema(demo_schema);
  const auto joiner_versions = joiner.page_versions();
  size_t sent = 0;
  for (auto& [pid, ver] : support.page_versions()) {
    auto it = joiner_versions.find(pid);
    const uint64_t have = it == joiner_versions.end() ? 0 : it->second;
    if (ver > have) {
      joiner.install_page(pid, support.db().table(pid.table).page(pid.page),
                          ver);
      ++sent;
    }
  }
  joiner.adopt_version(support.received_version());
  EXPECT_GT(sent, 0u);
  EXPECT_TRUE(support.db().pages_equal(joiner.db()));
  EXPECT_EQ(joiner.db().table(0).row_count(), 20u);
}

TEST(MemEngine, DeadlockDeathSurfacesAsAbort) {
  Cluster c(0);
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  // Two transactions read the row (S) and then update it (S->X upgrade):
  // each upgrade waits for the other's S lock, so the second one to ask
  // closes a cycle and dies; the survivor's upgrade is then granted.
  int died = 0, committed = 0;
  auto body = [](Cluster& c, int& died, int& committed) -> sim::Task<> {
    auto txn = c.master->begin_update();
    try {
      co_await c.master->get(*txn, 0, K(int64_t{1}));
      co_await c.master->update(*txn, 0, K(int64_t{1}),
                                [](Row& r) { r[1] = int64_t{1}; });
    } catch (const TxnAbort& e) {
      EXPECT_EQ(e.reason, TxnAbort::Reason::Deadlock);
      ++died;
      c.master->rollback(*txn);
      co_return;
    }
    co_await c.master->precommit(*txn);
    c.master->finish_commit(*txn);
    ++committed;
  };
  c.sim.spawn(body(c, died, committed));
  c.sim.spawn(body(c, died, committed));
  c.sim.run();
  EXPECT_EQ(died, 1);
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(c.master->locks().death_count(), 1u);
}

TEST(MemEngine, FullPageWriteSetsShipWholePages) {
  MemEngine::Config cfg;
  cfg.full_page_writesets = true;
  Cluster c(1, cfg);
  size_t ws_bytes = 0;
  c.master->set_broadcast_fn([&](const txn::WriteSetPtr& ws) {
    ws_bytes = ws->byte_size();
    c.slaves[0]->on_write_set(ws);
  });
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  // A one-row insert ships a full 8 KiB page instead of a small diff.
  EXPECT_GT(ws_bytes, storage::kPageSize);
  // And the slave still converges.
  c.sim.spawn([](MemEngine& s) -> sim::Task<> {
    co_await s.apply_pending(0, s.received_version()[0]);
  }(*c.slaves[0]));
  c.sim.run();
  EXPECT_TRUE(c.master->db().pages_equal(c.slaves[0]->db()));
}

TEST(MemEngineCc, DiffWriteSetsAreSmall) {
  Cluster c(1);
  size_t ws_bytes = 0;
  c.master->set_broadcast_fn(
      [&](const txn::WriteSetPtr& ws) { ws_bytes = ws->byte_size(); });
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  EXPECT_LT(ws_bytes, 256u);  // ~row size + bitmap byte + headers
}

TEST(MemEngineCc, PromotedMasterContinuesVersionSequence) {
  // Regression guard on the §4.2 invariant: the new master's first commit
  // must produce version N+1 where N is the confirmed version, or slave
  // pending queues would reject/misorder mods.
  Cluster c(2);
  for (int i = 0; i < 5; ++i) {
    c.run_update([i](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
      co_await insert_acct(m, txn, i, i, "x");
    });
  }
  auto& s0 = *c.slaves[0];
  c.sim.spawn([](MemEngine& s) -> sim::Task<> {
    std::set<storage::TableId> both{0, 1};
    co_await s.promote(both);
  }(s0));
  c.sim.run();
  EXPECT_EQ(s0.version()[0], 5u);
  s0.set_broadcast_fn(
      [&](const txn::WriteSetPtr& ws) { c.slaves[1]->on_write_set(ws); });
  c.sim.spawn([](Cluster& c, MemEngine& s) -> sim::Task<> {
    auto txn = s.begin_update();
    co_await insert_acct(s, *txn, 100, 1, "y");
    const txn::WriteSetPtr ws = co_await s.precommit(*txn);
    s.finish_commit(*txn);
    EXPECT_EQ(ws->db_version[0], 6u);
    (void)c;
  }(c, s0));
  c.sim.run();
  // The other slave accepts and applies the continuation seamlessly.
  c.sim.spawn([](MemEngine& s) -> sim::Task<> {
    co_await s.apply_pending(0, s.received_version()[0]);
  }(*c.slaves[1]));
  c.sim.run();
  EXPECT_TRUE(
      c.slaves[1]->db().table(0).pk_find(K(int64_t{100})).has_value());
}

TEST(MemEngineCc, RevertedWriteDoesNotBumpVersion) {
  Cluster c(1);
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  ASSERT_EQ(c.master->version()[0], 1u);

  // Written then reverted: the dirty page diffs empty, so no mod ships
  // and the table version must NOT advance — cumulative acks equate
  // "version seen" with "write-set received", and a version number no
  // write-set carries would park tagged readers forever.
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    const bool found = co_await m.update(
        txn, 0, K(int64_t{1}), [](Row& r) { r[1] = int64_t{100}; });
    EXPECT_TRUE(found);
  });
  EXPECT_EQ(c.master->version()[0], 1u);
  EXPECT_EQ(c.master->stats().update_commits, 2u);
  EXPECT_EQ(c.slaves[0]->received_version()[0], 1u);
  EXPECT_EQ(c.slaves[0]->pending_mod_count(), 1u);  // only the insert

  // The next real change resumes the sequence without a gap.
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await m.update(txn, 0, K(int64_t{1}),
                      [](Row& r) { r[1] = int64_t{150}; });
  });
  EXPECT_EQ(c.master->version()[0], 2u);
  EXPECT_EQ(c.slaves[0]->received_version()[0], 2u);
}

TEST(CacheModel, FaultsThenHits) {
  CacheModel cache(4, 1000);
  EXPECT_EQ(cache.touch({0, 0}), 1000);
  EXPECT_EQ(cache.touch({0, 0}), 0);
  EXPECT_EQ(cache.faults(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(CacheModel, EvictionCausesRefault) {
  CacheModel cache(2, 1000);
  cache.touch({0, 0});
  cache.touch({0, 1});
  cache.touch({0, 2});  // evicts {0,0}
  EXPECT_EQ(cache.touch({0, 0}), 1000);
}

TEST(CacheModel, PrefetchWarmsWithoutCharge) {
  CacheModel cache(8, 1000);
  cache.prefetch({0, 5});
  EXPECT_EQ(cache.touch({0, 5}), 0);
}

TEST(CacheModel, HotPagesMruOrder) {
  CacheModel cache(8, 1000);
  cache.touch({0, 1});
  cache.touch({0, 2});
  cache.touch({0, 1});
  auto hot = cache.hot_pages(10);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0], (storage::PageId{0, 1}));
}

TEST(Checkpoint, RoundTripRestoresState) {
  Cluster c(0);
  for (int i = 0; i < 25; ++i) {
    c.run_update([i](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
      co_await insert_acct(m, txn, i, i, "o");
    });
  }
  StableStore store;
  Checkpointer cp(c.sim, *c.master, store, 60 * sim::kSec);
  c.sim.spawn([](Checkpointer& cp) -> sim::Task<> {
    const size_t flushed = co_await cp.checkpoint_once();
    EXPECT_GT(flushed, 0u);
  }(cp));
  c.sim.run();

  MemEngine restored(c.sim, "restored", {});
  restored.build_schema(demo_schema);
  restore_from_checkpoint(restored, store);
  EXPECT_TRUE(c.master->db().pages_equal(restored.db()));
  EXPECT_EQ(restored.db().table(0).row_count(), 25u);
  // Page versions restored too.
  EXPECT_EQ(restored.db().table(0).meta(0).version,
            c.master->db().table(0).meta(0).version);
}

// A checkpoint shares the pages it flushes: a pass over a copy of an image
// that nobody wrote holds the image's own pages and clones none, a write
// after it clones only the page it writes, and the snapshot keeps the
// image the page had when it was taken.
TEST(Checkpoint, SharesPagesInsteadOfCopyingThem) {
  Cluster c(0);
  for (int i = 0; i < 800; ++i) {
    c.run_update([i](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
      co_await insert_acct(m, txn, i, i, "o");
    });
  }
  const storage::Database image = c.master->db();
  MemEngine copy(c.sim, "copy", {});
  copy.build_schema(demo_schema);
  copy.db() = image;
  const storage::Table& tb = std::as_const(copy.db()).table(0);
  const storage::Table& img = image.table(0);
  ASSERT_GT(img.page_count(), 2u);

  StableStore store;
  Checkpointer cp(c.sim, copy, store, 60 * sim::kSec);
  c.sim.spawn([](Checkpointer& cp) -> sim::Task<> {
    co_await cp.checkpoint_once();
  }(cp));
  c.sim.run();
  for (storage::PageNo p = 0; p < img.page_count(); ++p) {
    ASSERT_NE(store.get({0, p}), nullptr);
    EXPECT_EQ(store.get({0, p})->image.get(), &img.page(p));
    EXPECT_EQ(&tb.page(p), &img.page(p));
  }

  // A write to page 1 clones page 1 only; the snapshot keeps the old bytes.
  const storage::Page before = img.page(1);
  Row row = tb.read_row({1, 0});
  row[1] = int64_t{-1};
  copy.db().table(0).update_row({1, 0}, row);
  EXPECT_NE(&tb.page(1), &img.page(1));
  EXPECT_EQ(&tb.page(0), &img.page(0));
  EXPECT_TRUE(*store.get({0, 1})->image == before);

  MemEngine restored(c.sim, "restored", {});
  restored.build_schema(demo_schema);
  restore_from_checkpoint(restored, store);
  EXPECT_TRUE(restored.db().pages_equal(image));
  EXPECT_EQ(restored.db().table(0).row_count(), 800u);
}

TEST(Checkpoint, SecondPassFlushesOnlyChangedPages) {
  Cluster c(0);
  for (int i = 0; i < 10; ++i) {
    c.run_update([i](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
      co_await insert_acct(m, txn, i, i, "o");
    });
  }
  StableStore store;
  Checkpointer cp(c.sim, *c.master, store, 60 * sim::kSec);
  size_t first = 0, second = 0, third = 0;
  c.sim.spawn([](Cluster& c, Checkpointer& cp, size_t& a, size_t& b,
                 size_t& d) -> sim::Task<> {
    a = co_await cp.checkpoint_once();
    b = co_await cp.checkpoint_once();  // nothing changed
    // One more commit dirties one page.
    auto txn = c.master->begin_update();
    co_await c.master->update(*txn, 0, K(int64_t{3}),
                              [](Row& r) { r[1] = int64_t{77}; });
    co_await c.master->precommit(*txn);
    c.master->finish_commit(*txn);
    d = co_await cp.checkpoint_once();
  }(c, cp, first, second, third));
  c.sim.run();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(second, 0u);
  EXPECT_EQ(third, 1u);
}

TEST(Checkpoint, SkipsUncommittedPages) {
  Cluster c(0);
  c.run_update([](MemEngine& m, txn::TxnCtx& txn) -> sim::Task<> {
    co_await insert_acct(m, txn, 1, 100, "ann");
  });
  StableStore store;
  Checkpointer cp(c.sim, *c.master, store, 60 * sim::kSec);
  c.sim.spawn([](Cluster& c, Checkpointer& cp) -> sim::Task<> {
    // Open txn holds X on page 0 of table 0 during the checkpoint.
    auto txn = c.master->begin_update();
    co_await c.master->update(*txn, 0, K(int64_t{1}),
                              [](Row& r) { r[1] = int64_t{-1}; });
    const size_t flushed = co_await cp.checkpoint_once();
    EXPECT_EQ(flushed, 0u);  // the only populated page was dirty
    c.master->rollback(*txn);
  }(c, cp));
  c.sim.run();
  EXPECT_EQ(store.get({0, 0}), nullptr);
}

}  // namespace
}  // namespace dmv::mem
