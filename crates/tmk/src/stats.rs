//! DSM protocol event counts: the one table that names every countable
//! op, and the [`TmkStats`] / [`TmkOp`] pair generated from it.
//!
//! Each op has exactly one counter — the node's always-on
//! [`NodeMetrics`](crate::NodeMetrics) cell indexed by its [`TmkOp`].
//! A [`TmkStats`] is a *reading* of those counters (one node's, or
//! summed over the cluster); a per-job `TmkStats` is the difference of
//! two readings taken at consecutive job boundaries
//! ([`TmkStats::since`]).

macro_rules! tmk_ops {
    ($(($variant:ident, $field:ident, $doc:literal)),* $(,)?) => {
        /// Counts of protocol events on one node (or summed over all nodes).
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct TmkStats {
            $(
                #[doc = $doc]
                pub $field: u64,
            )*
        }

        impl TmkStats {
            /// Accumulate `other` into `self` (for cross-node aggregation).
            pub fn merge(&mut self, other: &TmkStats) {
                for op in TmkOp::ALL {
                    op.add_to(self, op.read(other));
                }
            }

            /// The events counted between the reading `earlier` and this
            /// one (counters only grow, so every field is `self − earlier`).
            pub fn since(&self, earlier: &TmkStats) -> TmkStats {
                TmkStats {
                    $($field: self.$field - earlier.$field,)*
                }
            }
        }

        /// One countable DSM/runtime protocol event: names a field of
        /// [`TmkStats`] and indexes the matching always-on counter.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum TmkOp {
            $(
                #[doc = $doc]
                $variant,
            )*
        }

        impl TmkOp {
            /// Every op, in [`TmkStats`] field order.
            pub const ALL: &'static [TmkOp] = &[$(TmkOp::$variant),*];

            /// Number of ops.
            pub const COUNT: usize = TmkOp::ALL.len();

            /// The snake_case stats-field name (used as the `op` label).
            pub fn name(self) -> &'static str {
                match self {
                    $(TmkOp::$variant => stringify!($field)),*
                }
            }

            /// Read the matching field of a [`TmkStats`].
            pub fn read(self, s: &TmkStats) -> u64 {
                match self {
                    $(TmkOp::$variant => s.$field),*
                }
            }

            /// Add `n` to the matching field of a [`TmkStats`].
            pub fn add_to(self, s: &mut TmkStats, n: u64) {
                match self {
                    $(TmkOp::$variant => s.$field += n),*
                }
            }
        }
    };
}

tmk_ops! {
    (ReadFaults, read_faults, "Pages that needed remote data (diffs or a full copy) to become \
     readable, counted once per fault however many request rounds it took."),
    (TwinsCreated, twins_created, "Write accesses that created a twin."),
    (DiffsCreated, diffs_created, "Diffs encoded (lazily) from twins."),
    (DiffBytesCreated, diff_bytes_created, "Total changed bytes across created diffs."),
    (DiffsApplied, diffs_applied, "Diffs received and applied."),
    (Invalidations, invalidations, "Write-notice invalidations processed."),
    (IntervalsClosed, intervals_closed, "Non-empty intervals closed (releases that produced notices)."),
    (PageFetches, page_fetches, "Full-page copies fetched (post-GC cold misses)."),
    (PageServes, page_serves, "Full-page copies served to peers."),
    (Barriers, barriers, "Barrier episodes completed."),
    (LockAcquires, lock_acquires, "Lock acquisitions (local + remote)."),
    (LockAcquiresLocal, lock_acquires_local, "Lock acquisitions satisfied without messages (token already here)."),
    (SemaSignals, sema_signals, "Semaphore signals issued."),
    (SemaWaits, sema_waits, "Semaphore waits completed."),
    (CondWaits, cond_waits, "Condition-variable waits completed."),
    (CondSignals, cond_signals, "Condition-variable signals issued."),
    (CondBroadcasts, cond_broadcasts, "Condition-variable broadcasts issued."),
    (Flushes, flushes, "OpenMP flush operations executed."),
    (Forks, forks, "Parallel regions forked (counted on the master)."),
    (GcRuns, gc_runs, "Diff garbage-collection rounds."),
    (PushWrites, push_writes, "Write-only (\"push\") page accesses that skipped a fetch."),
    (TasksSpawned, tasks_spawned, "OpenMP tasks spawned into a deque (tasking layer)."),
    (TasksExecuted, tasks_executed, "OpenMP tasks executed (tasking layer; includes stolen + inline)."),
    (TasksStolen, tasks_stolen, "OpenMP tasks executed after being stolen from a remote deque."),
    (StealAttempts, steal_attempts, "Remote deques asked while hunting for work (hit or miss): \
     every victim a steal chain reached, whether it answered or forwarded the request."),
    (TaskOverflows, task_overflows, "Tasks executed inline because the local deque was full."),
    (LoopSteals, loop_steals, "Affinity-scheduled loop chunks taken from another node's home \
     partition (remote rebalancing after the taker ran dry)."),
    (DiffRefetches, diff_refetches, "Diff request messages re-sent to interval creators because \
     a dominating writer asked first had not applied some diffs (its reply came back short); one \
     per creator and fault round, however many pages it is asked about."),
    (DiffBytesRetained, diff_bytes_retained, "Wire bytes of foreign diffs retained after applying \
     them (served to later faulting nodes, dropped at GC; not GC-trigger storage)."),
    (DiffBytesAttached, diff_bytes_attached, "Wire bytes of own diffs attached to barrier arrivals \
     and lock releases for pages other nodes subscribe to (the manager forwards them to those \
     nodes)."),
    (Parks, parks, "Idle task workers parked at node 0 until a push woke them or the task \
     scope ended (one per node agent's park)."),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = TmkStats {
            read_faults: 1,
            diffs_created: 2,
            ..Default::default()
        };
        let b = TmkStats {
            read_faults: 10,
            barriers: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.read_faults, 11);
        assert_eq!(a.diffs_created, 2);
        assert_eq!(a.barriers, 3);
    }

    #[test]
    fn since_subtracts_an_earlier_reading() {
        let mut now = TmkStats::default();
        for (i, op) in TmkOp::ALL.iter().enumerate() {
            op.add_to(&mut now, 10 + i as u64);
        }
        let earlier = TmkStats {
            barriers: 4,
            ..Default::default()
        };
        let delta = now.since(&earlier);
        assert_eq!(delta.barriers, now.barriers - 4);
        assert_eq!(delta.loop_steals, now.loop_steals);
        assert_eq!(now.since(&now), TmkStats::default());
    }

    /// The three label sets are an export format (`now_dsm_ops_total{op}`,
    /// `now_op_vt_ns{op}` / `now_op_host_ns{op}`, `now_net_kind_*{kind}`,
    /// the JSON keys, and the per-kind slot order): a rename or reorder
    /// must show up here as a diff, not silently at a consumer.
    #[test]
    fn label_sets_are_pinned() {
        use crate::metrics::OpLat;
        use crate::protocol::Msg;
        use now_net::Wire;

        fn pinned(labels: &str) -> Vec<&str> {
            labels.split_whitespace().collect()
        }
        let ops: Vec<_> = TmkOp::ALL.iter().map(|op| op.name()).collect();
        assert_eq!(TmkOp::COUNT, 31);
        assert_eq!(
            ops,
            pinned(
                "read_faults twins_created diffs_created diff_bytes_created diffs_applied \
                 invalidations intervals_closed page_fetches page_serves barriers \
                 lock_acquires lock_acquires_local sema_signals sema_waits cond_waits \
                 cond_signals cond_broadcasts flushes forks gc_runs push_writes \
                 tasks_spawned tasks_executed tasks_stolen steal_attempts task_overflows \
                 loop_steals diff_refetches diff_bytes_retained diff_bytes_attached parks"
            )
        );
        let lats: Vec<_> = OpLat::ALL.iter().map(|op| op.name()).collect();
        assert_eq!(OpLat::COUNT, 11);
        assert_eq!(
            lats,
            pinned(
                "page_fault barrier lock_acquire lock_release sema_signal sema_wait \
                 cond_wait flush gc steal park"
            )
        );
        let kinds = <Msg as Wire>::kinds();
        assert_eq!(kinds.len(), 33);
        assert_eq!(
            kinds,
            pinned(
                "diff_req diff_rep page_req page_rep lock_acq lock_rel lock_grant \
                 barrier_arrive barrier_depart sema_signal sema_ack sema_wait sema_grant \
                 cond_wait cond_signal cond_broadcast flush_notice flush_ack steal_req \
                 steal_rep task_join task_done term_idle term_wake term_go fork gc_done \
                 gc_complete reset_req reset_done sync_req sync_ack shutdown"
            )
        );
        // A row's position is its slot in the per-kind traffic metrics.
        for (m, id) in [
            (Msg::PageReq { page: 1 }, 2),
            (Msg::FlushAck, 17),
            (Msg::Shutdown, 32),
        ] {
            assert_eq!((m.kind_id(), m.kind()), (id, kinds[id]));
        }
    }
}
