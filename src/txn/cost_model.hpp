// Virtual-time cost model.
//
// The reproduction executes all protocol and data-structure logic for real
// but charges *time* from this table (the host machine's speed is thus
// irrelevant to results). Values approximate the paper's 2007-era hardware:
// 1.9 GHz Athlons, commodity disks with multi-millisecond random access,
// and a switched LAN with sub-millisecond RTT. Every experiment records the
// model it ran with; the ablation benches vary entries to show sensitivity.
#pragma once

#include "sim/time.hpp"

namespace dmv::txn {

struct CostModel {
  // --- in-memory engine CPU costs (per operation) ---
  // Fixed per-query overhead (network parse, SQL layer, PHP round-trip
  // share) — the main calibration levers for absolute in-memory
  // throughput. TPC-W read queries are complex (joins, ORDER BY, LIKE);
  // its write statements are single-row — hence the asymmetry, which is
  // also what keeps the master lightly loaded in the paper's read-heavy
  // mixes.
  sim::Time mem_cpu_read_query = 500;
  sim::Time mem_cpu_write_query = 150;
  sim::Time txn_begin = 10;
  sim::Time txn_commit = 30;
  sim::Time index_lookup = 4;        // RB-tree descent
  sim::Time index_update = 10;       // insert/erase, excluding rotations
  sim::Time index_rotation = 3;      // per rotation (paper: insert-heavy
                                     // mixes saturate the master partly on
                                     // RB-tree rebalancing)
  sim::Time index_scan_entry = 1;    // per entry visited in a range scan
  sim::Time row_read = 5;            // decode + predicate
  sim::Time row_write = 10;          // encode
  sim::Time diff_page = 20;          // write-set creation per dirty page
  sim::Time apply_run = 2;           // per byte-run applied on a slave
  sim::Time apply_slot_reindex = 6;  // per slot unindex+index on apply
  sim::Time deadlock_backoff = 500;  // restart delay after a deadlock death

  // --- memory / buffer-cache model (in-memory tier) ---
  // Cost of touching a page absent from the node's resident set (mmap
  // page fault -> disk). Dominates the cold-backup warm-up phases.
  sim::Time mem_page_fault = 4 * sim::kMsec;

  sim::Time checkpoint_page_write = 300;  // sequential flush per page
  sim::Time install_page = 40;            // migration: install one page

  // --- on-disk engine (InnoDB stand-in) ---
  sim::Time disk_page_read = 8 * sim::kMsec;   // random read (seek+xfer)
  sim::Time disk_page_write = 6 * sim::kMsec;  // background write-back
  sim::Time log_fsync = 3 * sim::kMsec;        // commit group flush
  sim::Time disk_cpu_per_query = 60;           // SQL overhead per query
  sim::Time log_replay_per_txn = 12 * sim::kMsec;  // recovery replay rate
};

}  // namespace dmv::txn
