//! Checks shared by the runtime test suites.

use protoquot_runtime::StatsSnapshot;

/// Asserts the conservation laws of a quiescent gateway's counters:
///
/// * every accepted event is counted under exactly one event name:
///   `Σ per_event == accepted`;
/// * every batched frame was answered inline or routed to the slow
///   path: `batch_frames == batch_inline + batch_slow`;
/// * every session ever opened is resident, evicted or closed:
///   `sessions_opened == sessions_active + sessions_evicted + sessions_closed`.
pub fn assert_stats_conserved(label: &str, snap: &StatsSnapshot) {
    let per_event: u64 = snap.per_event.iter().map(|(_, n)| n).sum();
    assert_eq!(
        per_event, snap.accepted,
        "{label}: per-event counts do not sum to `accepted`: {snap}"
    );
    assert_eq!(
        snap.batch_frames,
        snap.batch_inline + snap.batch_slow,
        "{label}: batched frames are neither inline nor slow-path: {snap}"
    );
    assert_eq!(
        snap.sessions_opened,
        snap.sessions_active + snap.sessions_evicted + snap.sessions_closed,
        "{label}: opened sessions are unaccounted for: {snap}"
    );
}

/// Asserts that no frame was ever queued for a worker: the transports
/// and loopbacks answer every frame inline, so neither the batch slow
/// path nor any per-session queue may have been used.
pub fn assert_never_queued(label: &str, snap: &StatsSnapshot) {
    assert_eq!(
        (snap.batch_slow, snap.queue_high_water),
        (0, 0),
        "{label}: a frame was queued for a worker: {snap}"
    );
}
