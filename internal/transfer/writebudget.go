package transfer

import (
	"sync"

	"automdt/internal/metrics"
	"automdt/internal/rate"
)

// writeArbiter divides an endpoint's write-stage budget
// (Config.WriteBudgetMbps) max-min fair across its active sessions. Each
// session owns a private token bucket; on every membership change the
// arbiter resets every bucket's rate to budget/n, so a greedy
// high-priority session with many write threads still cannot take more
// than its fair share of the shared disks — the per-session bucket, not
// thread count, is the binding constraint.
//
// This is deliberately receiver-side: the sender's optimizer tunes
// thread counts for its own goodput and knows nothing about sibling
// sessions, so fairness has to be enforced where the contention is.
type writeArbiter struct {
	budgetMbps float64
	chunk      int

	mu         sync.Mutex
	members    map[string]*rate.Limiter
	rebalances int64
}

// newWriteArbiter returns nil when no budget is configured — callers
// treat a nil arbiter as "unarbitrated".
func newWriteArbiter(budgetMbps float64, chunk int) *writeArbiter {
	if budgetMbps <= 0 {
		return nil
	}
	return &writeArbiter{
		budgetMbps: budgetMbps,
		chunk:      chunk,
		members:    make(map[string]*rate.Limiter),
	}
}

// join registers a session and returns its budget bucket, rebalancing
// every member to the new equal split.
func (a *writeArbiter) join(session string) *rate.Limiter {
	a.mu.Lock()
	defer a.mu.Unlock()
	lim, ok := a.members[session]
	if !ok {
		lim = rate.Unlimited()
		a.members[session] = lim
		a.rebalanceLocked()
	}
	return lim
}

// leave unregisters a session and redistributes its share to the
// remaining members.
func (a *writeArbiter) leave(session string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.members[session]; !ok {
		return
	}
	delete(a.members, session)
	a.rebalanceLocked()
}

// rebalanceLocked sets every member's bucket to budget/n with a 20 ms
// (or one-chunk) burst, mirroring newLimiter's shaping discipline.
// Caller holds mu.
func (a *writeArbiter) rebalanceLocked() {
	n := len(a.members)
	if n == 0 {
		return
	}
	a.rebalances++
	share := mbpsToBytesPerSec(a.budgetMbps / float64(n))
	burst := share * 0.02
	if burst < float64(a.chunk) {
		burst = float64(a.chunk)
	}
	for _, lim := range a.members {
		lim.SetRateBurst(share, burst)
	}
}

// snapshotInto appends the arbiter's gauges to an endpoint snapshot.
func (a *writeArbiter) snapshotInto(snap *metrics.Snapshot) {
	a.mu.Lock()
	n := len(a.members)
	rebalances := a.rebalances
	a.mu.Unlock()
	share := a.budgetMbps
	if n > 0 {
		share = a.budgetMbps / float64(n)
	}
	snap.Add("automdt_endpoint_write_budget_mbps", a.budgetMbps)
	snap.Add("automdt_endpoint_write_budget_sessions", float64(n))
	snap.Add("automdt_endpoint_write_budget_share_mbps", share)
	snap.Add("automdt_endpoint_write_budget_rebalances_total", float64(rebalances))
}
