//! Checks shared by the runtime test suites.

use protoquot_runtime::StatsSnapshot;

/// Asserts the conservation laws of a quiescent gateway's counters:
///
/// * every frame was accepted as an event, rejected, or accepted as a
///   control frame (hello ack, stall attestation, close):
///   `frames == accepted + Σrejects + control_frames`;
/// * every accepted event is counted under exactly one event name:
///   `Σ per_event == accepted`;
/// * every session ever opened is resident, evicted or closed:
///   `sessions_opened == sessions_active + sessions_evicted + sessions_closed`.
pub fn assert_stats_conserved(label: &str, snap: &StatsSnapshot) {
    let rejects: u64 = snap.rejects.iter().map(|(_, n)| n).sum();
    assert_eq!(
        snap.frames,
        snap.accepted + rejects + snap.control_frames,
        "{label}: frames are neither accepted, rejected nor control frames: {snap}"
    );
    let per_event: u64 = snap.per_event.iter().map(|(_, n)| n).sum();
    assert_eq!(
        per_event, snap.accepted,
        "{label}: per-event counts do not sum to `accepted`: {snap}"
    );
    assert_eq!(
        snap.sessions_opened,
        snap.sessions_active + snap.sessions_evicted + snap.sessions_closed,
        "{label}: opened sessions are unaccounted for: {snap}"
    );
}
