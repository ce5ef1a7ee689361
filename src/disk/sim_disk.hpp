// A single commodity disk: one arm (FIFO service), multi-millisecond random
// page reads/writes and log fsyncs, all contending with each other — the
// property that makes the on-disk baseline disk-bound like the paper's
// InnoDB back-end.
#pragma once

#include "sim/sync.hpp"
#include "txn/cost_model.hpp"

namespace dmv::disk {

class SimDisk {
 public:
  SimDisk(sim::Simulation& sim, const txn::CostModel& costs)
      : costs_(costs), arm_(sim, 1) {}

  sim::Task<> read_page() {
    ++reads_;
    co_await arm_.use(costs_.disk_page_read);
  }
  sim::Task<> write_page() {
    ++writes_;
    co_await arm_.use(costs_.disk_page_write);
  }
  sim::Task<> fsync() {
    ++fsyncs_;
    co_await arm_.use(costs_.log_fsync);
  }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t fsyncs() const { return fsyncs_; }
  sim::Time busy_time() const { return arm_.busy_time(); }

 private:
  txn::CostModel costs_;
  sim::Resource arm_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t fsyncs_ = 0;
};

}  // namespace dmv::disk
