// Write-ahead log with group commit.
//
// Concurrent committers appending while a flush is in flight are absorbed
// by the next flush: under load one fsync covers many commits, which is
// what keeps the baseline's update throughput from collapsing entirely —
// and still leaves commit latency fsync-bound, as with real InnoDB.
#pragma once

#include "disk/sim_disk.hpp"

namespace dmv::disk {

class Wal {
 public:
  Wal(sim::Simulation& sim, SimDisk& disk)
      : disk_(disk), flushed_q_(sim) {}

  // Buffer a record; returns its LSN.
  uint64_t append(size_t bytes) {
    bytes_appended_ += bytes;
    ++records_;
    return ++appended_lsn_;
  }

  // Return once everything appended so far is durable (group commit).
  sim::Task<> sync() {
    const uint64_t my_lsn = appended_lsn_;
    while (flushed_lsn_ < my_lsn) {
      if (flush_active_) {
        co_await flushed_q_.wait();
        continue;
      }
      flush_active_ = true;
      const uint64_t target = appended_lsn_;  // absorb the current batch
      co_await disk_.fsync();
      flushed_lsn_ = target;
      flush_active_ = false;
      flushed_q_.notify_all();
    }
  }

  uint64_t records() const { return records_; }
  uint64_t bytes_appended() const { return bytes_appended_; }

 private:
  SimDisk& disk_;
  sim::WaitQueue flushed_q_;
  uint64_t appended_lsn_ = 0;
  uint64_t flushed_lsn_ = 0;
  uint64_t records_ = 0;
  uint64_t bytes_appended_ = 0;
  bool flush_active_ = false;
};

}  // namespace dmv::disk
