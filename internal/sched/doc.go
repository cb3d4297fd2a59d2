// Package sched is the transfer-job scheduler behind cmd/automdt-daemon:
// it turns the single-transfer AutoMDT engine into a multi-tenant
// service. Jobs (manifest + destination + priority) are queued by
// priority and run concurrently, each driven by its own controller,
// while a global budget arbiter splits the host's per-stage worker
// budget ⟨read, net, write⟩ across the active jobs — fair-share weighted
// by priority, rebalanced whenever a job starts or finishes, and
// enforced through env.BudgetCap so no controller can exceed its slice.
//
// Job lifecycle: Queued → Running → Done | Failed | Cancelled, with
// bounded retries. Every job's attempts share one session ID, so a
// retried attempt resumes the interrupted transfer from its chunk ledger
// instead of restarting from byte zero.
//
// Attempts execute through a pluggable Runner. LoopbackRunner spawns a
// private in-process receiver per job; FleetRunner instead points every
// job at a fleet of shared multi-session receiver endpoints (one, with
// Size 1) — the deployed-DTN shape, where the destination's admission
// cap and the scheduler's budget bound load together. NewHandler exposes
// the scheduler over HTTP under /v1/ (submit/status/cancel/list plus a
// text metrics snapshot).
//
// docs/OPERATIONS.md is the operator's guide: the HTTP API reference,
// the /metrics field glossary, and resume/retry semantics.
package sched
