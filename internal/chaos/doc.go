// Package chaos is the fault-injection toolkit behind the adversarial
// scenario matrix (`automdt-bench -exp chaos` and the nightly CI
// robustness battery). It supplies the mechanisms; the declarative
// scenario matrix that composes them into cells lives in
// internal/experiments.
//
// Three fault families, one per seam the transfer engine already
// exposes:
//
//   - Link: a Markov-modulated link model (per-state bandwidth, jitter,
//     and whole-connection loss, driven by a state-transition matrix)
//     applied as a net.Conn wrapper at the wire seam via
//     transfer.Config.WrapConn. The wrapper only delays writes or kills
//     whole connections — it never corrupts, reorders, or duplicates the
//     bytes it delivers (FuzzChaosConn holds it to that contract), so
//     every failure it induces is one the engine must recover from
//     without integrity machinery noticing anything.
//
//   - FlakyStore: an fsim.Store decorator injecting destination-disk
//     pathology — per-write latency, periodic write errors, short
//     writes, and a hard ENOSPC byte budget shared by data and ledger
//     writes — while forwarding the whole fsim.LedgerStore contract
//     (snapshot, journal, Stat, listing) so resume semantics stay
//     observable under the faults. It also counts data and ledger bytes
//     durably accepted, which is where the matrix's ledger-bytes
//     aggregate comes from.
//
//   - Peer: a hostile middlebox riding the same WrapConn seam, with
//     data and control roles sharing one state. It bit-flips forwarded
//     data frames, kills a single data connection after a byte budget
//     (exercising the protocol ≥3 targeted re-plan path), or partitions
//     the whole session mid-transfer and heals after a hold-down.
//
// Every component takes an explicit seed and draws from its own
// math/rand stream, so a scenario cell replays the same fault schedule
// run to run. Timing-dependent interleavings (where a kill lands
// relative to the probe tick) still vary; the decisions do not.
package chaos
