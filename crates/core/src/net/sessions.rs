//! The server's bounded, TTL-evicting table of resumable sessions:
//! exactly-once floors, quarantine marks, and the crash journal's hooks.

use crate::journal::{Journal, JournalRecord, Replay};
use parking_lot::Mutex;
use pp_paillier::packing::PackingSpec;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-session resume state the server retains across connections.
#[derive(Clone, Debug)]
pub(super) struct SessionEntry {
    pub(super) pk_n: Vec<u8>,
    pub(super) pk_fingerprint: u64,
    topology: u64,
    /// Items `0..acked` are client-confirmed delivered — the
    /// exactly-once floor. Round 0 below it is a protocol violation.
    acked: u64,
    /// Items `0..started` have begun round 0 at least once; round 0 in
    /// `acked..started` is a legitimate post-resume replay.
    started: u64,
    /// Seqs whose linear execution panicked. Outlives the connection:
    /// replaying a quarantined item after a resume is refused with a
    /// fresh [`ItemErrorKind::Quarantined`] reply, never re-executed.
    quarantined: HashSet<u64>,
    last_seen: Instant,
}

/// Bounded, TTL-evicting table of resumable sessions, shared by every
/// connection a provider serves.
pub(super) struct SessionTable {
    ttl: Duration,
    capacity: usize,
    next_id: AtomicU64,
    inner: Mutex<HashMap<u64, SessionEntry>>,
    /// Crash journal: when armed, every mutation below appends its
    /// record *before* the mutator returns (and thus before any reply
    /// acknowledging the transition leaves the process). Locked after
    /// `inner`, never before.
    pub(super) journal: Mutex<Option<Journal>>,
    /// Appends that failed with an I/O error. Serving continues — a
    /// full disk degrades durability, not availability — but the count
    /// is surfaced so operators can see the journal has gaps.
    pub(super) journal_errors: AtomicU64,
}

impl SessionTable {
    pub(super) fn new(ttl: Duration, capacity: usize) -> Self {
        SessionTable {
            ttl,
            capacity: capacity.max(1),
            // Session 0 is never issued, so a zeroed client can't
            // accidentally resume a real stream.
            next_id: AtomicU64::new(1),
            inner: Mutex::new(HashMap::new()),
            journal: Mutex::new(None),
            journal_errors: AtomicU64::new(0),
        }
    }

    /// Appends one record if the journal is armed, counting (not
    /// propagating) I/O failures.
    fn journal_append(&self, record: &JournalRecord) {
        let mut slot = self.journal.lock();
        if let Some(journal) = slot.as_mut() {
            if journal.append(record).is_err() {
                self.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Rebuilds the table from a journal replay and arms `journal` for
    /// every subsequent mutation. Returns the number of sessions alive
    /// at the crash point. Replay order is append order, and every
    /// record's application is monotone (floors only rise, quarantine
    /// only grows), so the end state is exactly the crash state.
    pub(super) fn restore(&self, journal: Journal, replay: &Replay) -> usize {
        let mut map = self.inner.lock();
        let now = Instant::now();
        let mut max_id = 0u64;
        for record in &replay.records {
            match record {
                JournalRecord::Created { session, pk_n, pk_fingerprint, topology, .. } => {
                    max_id = max_id.max(*session);
                    map.insert(
                        *session,
                        SessionEntry {
                            pk_n: pk_n.clone(),
                            pk_fingerprint: *pk_fingerprint,
                            topology: *topology,
                            acked: 0,
                            started: 0,
                            quarantined: HashSet::new(),
                            // Restored sessions get a fresh TTL: their
                            // pre-crash `last_seen` was wall time in a
                            // dead process, and their clients are
                            // exactly the ones about to resume.
                            last_seen: now,
                        },
                    );
                }
                JournalRecord::Acked { session, acked } => {
                    if let Some(e) = map.get_mut(session) {
                        e.acked = e.acked.max(*acked);
                        e.started = e.started.max(e.acked);
                    }
                }
                JournalRecord::Started { session, started } => {
                    if let Some(e) = map.get_mut(session) {
                        e.started = e.started.max(*started);
                    }
                }
                JournalRecord::Quarantined { session, seq } => {
                    if let Some(e) = map.get_mut(session) {
                        e.quarantined.insert(*seq);
                    }
                }
                JournalRecord::Removed { session } => {
                    map.remove(session);
                }
            }
        }
        // New sessions are issued above every ID the journal mentions,
        // so a pre-crash client can never collide with a post-restart
        // one. (Every journaled session has a Created record: replay
        // only ever drops a *suffix*, and Created precedes all other
        // records of its session.)
        self.next_id.fetch_max(max_id + 1, Ordering::Relaxed);
        *self.journal.lock() = Some(journal);
        map.len()
    }

    fn evict_expired(&self, map: &mut HashMap<u64, SessionEntry>) {
        let now = Instant::now();
        let expired: Vec<u64> = map
            .iter()
            .filter(|(_, e)| now.duration_since(e.last_seen) > self.ttl)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            map.remove(&id);
            self.journal_append(&JournalRecord::Removed { session: id });
        }
    }

    /// Registers a fresh session, evicting expired entries and — at
    /// capacity — the least-recently-seen live one.
    pub(super) fn create(
        &self,
        pk_n: Vec<u8>,
        pk_fingerprint: u64,
        topology: u64,
        pack: Option<PackingSpec>,
    ) -> u64 {
        let mut map = self.inner.lock();
        self.evict_expired(&mut map);
        if map.len() >= self.capacity {
            if let Some(oldest) = map.iter().min_by_key(|(_, e)| e.last_seen).map(|(&id, _)| id) {
                map.remove(&oldest);
                self.journal_append(&JournalRecord::Removed { session: oldest });
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.journal_append(&JournalRecord::Created {
            session: id,
            pk_n: pk_n.clone(),
            pk_fingerprint,
            topology,
            pack: pack.map(|s| (s.slot_bits as u32, s.slots as u32, s.op_budget)),
        });
        map.insert(
            id,
            SessionEntry {
                pk_n,
                pk_fingerprint,
                topology,
                acked: 0,
                started: 0,
                quarantined: HashSet::new(),
                last_seen: Instant::now(),
            },
        );
        id
    }

    /// Validates a resume and syncs the ack floor to the client's count.
    pub(super) fn resume(&self, session: u64, items_done: u64, topology: u64) -> Result<SessionEntry, String> {
        let mut map = self.inner.lock();
        self.evict_expired(&mut map);
        let entry = map
            .get_mut(&session)
            .ok_or_else(|| format!("resume rejected: session {session} is unknown or expired"))?;
        if entry.topology != topology {
            return Err(format!(
                "resume rejected: topology digest {topology:#018x} does not match session \
                 {session}'s {:#018x}",
                entry.topology
            ));
        }
        if items_done < entry.acked {
            return Err(format!(
                "resume rejected: client reports {items_done} items done but {} are already \
                 acked — replaying them would break exactly-once delivery",
                entry.acked
            ));
        }
        if items_done > entry.acked {
            self.journal_append(&JournalRecord::Acked { session, acked: items_done });
        }
        entry.acked = items_done;
        entry.started = entry.started.max(entry.acked);
        entry.last_seen = Instant::now();
        Ok(entry.clone())
    }

    /// Raises the exactly-once floor from a client ack.
    pub(super) fn ack(&self, session: u64, items_done: u64) {
        let mut map = self.inner.lock();
        if let Some(e) = map.get_mut(&session) {
            if items_done > e.acked {
                e.acked = items_done;
                e.started = e.started.max(e.acked);
                self.journal_append(&JournalRecord::Acked { session, acked: items_done });
            }
            e.last_seen = Instant::now();
        }
    }

    /// Gate for an item's first linear round. `Ok(true)` means the item
    /// is a post-resume replay; `Err` means the floor was violated.
    pub(super) fn on_round0(&self, session: u64, seq: u64) -> Result<bool, String> {
        let mut map = self.inner.lock();
        let e = map
            .get_mut(&session)
            .ok_or_else(|| format!("session {session} vanished mid-connection"))?;
        if seq < e.acked {
            return Err(format!(
                "exactly-once violation: request {seq} restarted below the acked floor {}",
                e.acked
            ));
        }
        let replayed = seq < e.started;
        if !replayed {
            e.started = seq + 1;
            self.journal_append(&JournalRecord::Started { session, started: e.started });
        }
        e.last_seen = Instant::now();
        Ok(replayed)
    }

    /// Marks an item as poison: its execution panicked, and no replay of
    /// it will ever be executed again.
    pub(super) fn quarantine(&self, session: u64, seq: u64) {
        let mut map = self.inner.lock();
        if let Some(e) = map.get_mut(&session) {
            e.quarantined.insert(seq);
            e.last_seen = Instant::now();
            self.journal_append(&JournalRecord::Quarantined { session, seq });
        }
    }

    /// Whether an item is quarantined (its replay must be refused).
    pub(super) fn is_quarantined(&self, session: u64, seq: u64) -> bool {
        self.inner.lock().get(&session).is_some_and(|e| e.quarantined.contains(&seq))
    }

    /// Refreshes a session's liveness clock without moving any floor.
    /// Called for *every* frame a connection delivers — including
    /// keepalive acks and mid-round tensor frames — so a session whose
    /// connection is open but idle past the TTL is never evicted out
    /// from under its own live connection.
    pub(super) fn touch(&self, session: u64) {
        if let Some(e) = self.inner.lock().get_mut(&session) {
            e.last_seen = Instant::now();
        }
    }

    /// Ends a session deliberately (client Bye).
    pub(super) fn remove(&self, session: u64) {
        let mut map = self.inner.lock();
        if map.remove(&session).is_some() {
            self.journal_append(&JournalRecord::Removed { session });
        }
    }

    /// Live (unexpired, unremoved) sessions. Soak tests use this to
    /// assert a drained server leaks no session state.
    pub(super) fn len(&self) -> usize {
        self.inner.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::pk_fingerprint;
    use super::*;

    #[test]
    fn session_table_enforces_exactly_once() {
        let table = SessionTable::new(Duration::from_secs(60), 8);
        let s = table.create(vec![1, 2, 3], 99, 0x70B0, None);
        assert!(s >= 1, "session 0 is never issued");

        // Fresh item, then a legitimate post-resume replay of the same.
        assert_eq!(table.on_round0(s, 0), Ok(false));
        assert_eq!(table.on_round0(s, 0), Ok(true), "restart before ack is a replay");

        // Ack raises the floor; restarting below it is a violation.
        table.ack(s, 1);
        let err = table.on_round0(s, 0).unwrap_err();
        assert!(err.contains("exactly-once"), "{err}");
        assert_eq!(table.on_round0(s, 1), Ok(false), "the floor itself is fair game");
    }

    #[test]
    fn session_table_resume_validates_and_syncs() {
        let table = SessionTable::new(Duration::from_secs(60), 8);
        let s = table.create(vec![9], pk_fingerprint(&[9]), 0xABCD, None);

        let missing = table.resume(s + 1, 0, 0xABCD).unwrap_err();
        assert!(missing.contains("unknown or expired"), "{missing}");

        let wrong_topo = table.resume(s, 0, 0xDCBA).unwrap_err();
        assert!(wrong_topo.contains("topology"), "{wrong_topo}");

        // Resume syncs the ack floor from the client's completed count.
        let entry = table.resume(s, 5, 0xABCD).unwrap();
        assert_eq!(entry.acked, 5);
        assert_eq!(entry.started, 5);

        // A client claiming *less* done than the server has acked lost
        // state — replaying delivered items is refused.
        let behind = table.resume(s, 3, 0xABCD).unwrap_err();
        assert!(behind.contains("exactly-once"), "{behind}");
    }

    #[test]
    fn session_table_evicts_by_ttl_and_capacity() {
        // TTL: a zero-TTL table expires entries as soon as wall time
        // advances past their last touch.
        let table = SessionTable::new(Duration::ZERO, 8);
        let s = table.create(vec![1], 1, 1, None);
        std::thread::sleep(Duration::from_millis(2));
        let err = table.resume(s, 0, 1).unwrap_err();
        assert!(err.contains("unknown or expired"), "{err}");

        // Capacity: the least-recently-seen session is evicted.
        let table = SessionTable::new(Duration::from_secs(60), 2);
        let a = table.create(vec![1], 1, 7, None);
        std::thread::sleep(Duration::from_millis(2));
        let b = table.create(vec![2], 2, 7, None);
        std::thread::sleep(Duration::from_millis(2));
        table.ack(a, 0); // touch a, making b the LRU entry
        std::thread::sleep(Duration::from_millis(2));
        let c = table.create(vec![3], 3, 7, None);
        assert_eq!(table.len(), 2);
        assert!(table.resume(b, 0, 7).unwrap_err().contains("unknown"));
        assert!(table.resume(a, 0, 7).is_ok());
        assert!(table.resume(c, 0, 7).is_ok());
    }

    /// Regression: an open-but-idle connection (frames flowing, but no
    /// floor movement past the TTL — e.g. a slow multi-round item or
    /// keepalive acks) must not have its session TTL-evicted out from
    /// under it by another client's create/resume sweep.
    #[test]
    fn touched_idle_session_survives_ttl_eviction() {
        let table = SessionTable::new(Duration::from_millis(40), 8);
        let s = table.create(vec![1], 1, 7, None);
        let idle = table.create(vec![2], 2, 7, None);
        // Frames keep arriving on s's connection, each well within the
        // TTL, while `idle` sees nothing at all.
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(15));
            table.touch(s);
        }
        // Another client's create sweeps expired entries: the touched
        // session survives, the genuinely idle one is collected.
        let _other = table.create(vec![3], 3, 7, None);
        assert!(table.resume(s, 0, 7).is_ok(), "touched session was evicted");
        assert!(table.resume(idle, 0, 7).unwrap_err().contains("unknown or expired"));
    }

    fn journal_scratch(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pp-net-journal-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(crate::journal::JOURNAL_FILE)
    }

    /// The crash-recovery core in miniature: every floor movement of a
    /// journaled table is replayed into a fresh table ("the restarted
    /// process") and keeps enforcing exactly-once semantics.
    #[test]
    fn session_table_journal_restores_crash_state() {
        use crate::journal::FsyncPolicy;
        let path = journal_scratch("restore");

        // "First process": journaled transitions, then SIGKILL (drop).
        let (s, gone) = {
            let table = SessionTable::new(Duration::from_secs(60), 8);
            let (j, replay) = Journal::open(&path, FsyncPolicy::Never).expect("open");
            assert_eq!(table.restore(j, &replay), 0);
            let s = table.create(vec![7, 7], pk_fingerprint(&[7, 7]), 0xABCD, None);
            let gone = table.create(vec![8], pk_fingerprint(&[8]), 0xABCD, None);
            assert_eq!(table.on_round0(s, 0), Ok(false));
            table.ack(s, 1);
            assert_eq!(table.on_round0(s, 1), Ok(false));
            table.quarantine(s, 1);
            table.remove(gone);
            (s, gone)
        };

        // "Restarted process": replay the same journal.
        let table = SessionTable::new(Duration::from_secs(60), 8);
        let (j, replay) = Journal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(table.restore(j, &replay), 1, "one session was alive at the crash");

        let entry = table.resume(s, 1, 0xABCD).expect("pre-crash session resumes");
        assert_eq!(entry.acked, 1, "ack floor survived the crash");
        assert_eq!(entry.started, 2, "round-0 floor survived the crash");
        assert!(entry.quarantined.contains(&1), "quarantine survived the crash");
        assert!(table.resume(gone, 0, 0xABCD).unwrap_err().contains("unknown"));

        // The floors keep holding across the restart.
        assert!(table.on_round0(s, 0).unwrap_err().contains("exactly-once"));
        assert_eq!(table.on_round0(s, 1), Ok(true), "in-flight item replays");

        // New sessions never collide with pre-crash IDs.
        let fresh = table.create(vec![9], pk_fingerprint(&[9]), 0xABCD, None);
        assert!(fresh > s.max(gone), "restored next_id clears every journaled ID");
    }

    #[test]
    fn session_table_quarantine_survives_resume() {
        let table = SessionTable::new(Duration::from_secs(60), 8);
        let s = table.create(vec![1], 1, 7, None);
        assert!(!table.is_quarantined(s, 3));
        table.quarantine(s, 3);
        assert!(table.is_quarantined(s, 3));
        // The poison marker outlives the connection: a resume sees it.
        let entry = table.resume(s, 0, 7).unwrap();
        assert!(entry.quarantined.contains(&3));
        assert!(table.is_quarantined(s, 3));
        assert!(!table.is_quarantined(s, 4), "only the poison seq is marked");
    }
}
