// Package fleet is the receiver-fleet control plane: the small,
// shared-nothing coordination layer that lets many multi-session
// receiver endpoints (internal/transfer.Receiver) serve one logical
// destination.
//
// It has two pieces, each independently testable:
//
//   - Ring: consistent-hash session→endpoint placement with bounded
//     loads. Every endpoint projects a fixed set of virtual nodes onto a
//     64-bit hash ring; a session is placed on the first live endpoint at
//     or after its own hash, skipping endpoints already carrying more
//     than c× the mean session load (c defaults to 1.25). Membership
//     changes therefore remap only ≈1/n of the sessions, and no endpoint
//     can be herded far past its fair share.
//
//   - WriteArbiter semantics live receiver-side (see
//     transfer.Config.WriteBudgetMbps): each endpoint splits its write
//     budget max-min fair across its active sessions so one greedy
//     session cannot starve siblings on the shared disks.
//
// The daemon-side composition — spawning N endpoints, taking an endpoint
// off the ring once its own state says it is dead, routing jobs through
// the ring, and resuming a dead endpoint's sessions on a sibling via the
// portable binary ledger — is sched.FleetRunner. docs/FLEET.md describes
// the placement ring, the liveness rules, and the failover sequence.
//
// Registry (heartbeat membership with a TTL) is a standalone library
// with no runtime caller; it stays because the repo benchmark measures
// it.
package fleet
