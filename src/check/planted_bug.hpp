// Planted bugs for the checker's mutation smoke mode (check_sweep
// --mutations). Each one disables a known-critical consistency check so
// the history checker can prove it would catch the resulting bug; every
// enumerator but None has exactly one check::mutation_list() entry.
//
// A deployment carries one value, DmvCluster::Config::bug, which the
// cluster hands to every layer it builds; each layer tests it where the
// guarded check lives. Like sink.hpp, this header depends on nothing, so
// the engine and core layers include it without depending on dmv_check.
#pragma once

namespace dmv::check {

enum class PlantedBug {
  None,
  // Reads served by a table's master skip the §2.1 tag upgrade and the
  // page latch, bypassing check_page: torn and dirty state is observed.
  SkipTagUpgrade,
  // The scheduler acks an update's client without merging its db_version:
  // later reads may be tagged behind writes the client saw acknowledged.
  SkipAckMerge,
  // Replicas apply the pending-mod prefix one version short of the read's
  // tag, serving stale snapshots as fresh. (Applying past the tag is
  // caught by the §2.2 abort rule itself, not by the history oracle.)
  ApplyOffByOne,
  // Replicas ignore DiscardAbove: a failed master's partially propagated
  // write-sets survive recovery and leak into the new epoch.
  SkipDiscard,
  // Replicas apply each incoming WriteSetBatchMsg in reverse, breaking the
  // stream's FIFO version order.
  BatchReverse,
  // Disaster bootstrap replays a backend's rows but drops the update-log
  // suffix above its watermark: the acked tail is lost.
  SkipRecoverySuffix,
  // Quorum commit acks the client before any replica confirmed the
  // write-set: a master death loses client-acked commits, and the version
  // read gate wedges reads on versions no survivor can reach.
  ReplyBeforeQuorum,
  // answer_join puts a §4.4 joiner into the read rotation before data
  // migration caught it up: reads land on pages older than their tags.
  RouteToJoiner,
  // Read-only scans skip the per-page tag re-check: a replica whose apply
  // frontier ran ahead of the tag serves future versions into an older
  // snapshot instead of raising VersionConflict.
  ScanStaleRead,
  // One-pass scans check only the first page they reach; later pages are
  // served at whatever version they hold (a chunk crossing pages is torn).
  ScanFirstPageOnly,
  // The scheduler routes every other update to the next class's master,
  // which adopts the foreign table instead of refusing: two masters stamp
  // one table's version stream.
  WrongClassRoute,
  // A resubmission through a standby scheduler skips the lookup of its
  // original still waiting for replica acks, finds no committed mark and
  // executes a second time.
  MarkAfterAck,
  Count,  // not a bug: the number of enumerators; keep last
};

}  // namespace dmv::check
