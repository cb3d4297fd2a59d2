package experiments

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"automdt/internal/chaos"
)

// TestQuickChaosMatrix is the PR-blocking robustness gate: the 3×3
// quick sub-matrix must pass every cell invariant, and the
// connection-kill cells must demonstrably exercise the targeted re-plan
// path (re-plan events in the flight trace — enforced per cell via
// MinReplans, asserted again here for the matrix).
func TestQuickChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix needs live loopback transfers")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	m := QuickChaosMatrix(1)
	if len(m.Cells) < 9 {
		t.Fatalf("quick matrix has %d cells, want ≥9", len(m.Cells))
	}
	rep := RunChaosMatrix(ctx, m, "quick", io.Discard)
	if len(rep.Cells) != len(m.Cells) {
		t.Fatalf("ran %d of %d cells", len(rep.Cells), len(m.Cells))
	}
	killCells, killReplans, fleetCells, fleetReplaces := 0, 0, 0, 0
	for _, c := range rep.Cells {
		if !c.Pass {
			t.Errorf("cell %s failed: %s", c.Cell, c.Failure)
		}
		if c.Peer == "kill-conn" {
			killCells++
			killReplans += c.ReplanEvents
			if c.DetectMs <= 0 {
				t.Errorf("cell %s: no detection latency despite an injected kill", c.Cell)
			}
		}
		if c.Peer == "kill-endpoint" {
			fleetCells++
			fleetReplaces += c.ReplaceEvents
			if c.Failovers < 1 {
				t.Errorf("cell %s: no fleet failovers despite a whole-endpoint kill", c.Cell)
			}
		}
	}
	if killCells == 0 {
		t.Fatal("quick matrix has no kill-conn cells")
	}
	if killReplans == 0 {
		t.Fatal("kill-conn cells produced no re-plan events in the flight trace")
	}
	if fleetCells == 0 {
		t.Fatal("quick matrix has no whole-endpoint-kill fleet cells")
	}
	if fleetReplaces == 0 {
		t.Fatal("fleet cells produced no re-place events in the fleet flight trace")
	}
	var sb strings.Builder
	PrintChaosReport(&sb, rep)
	if !strings.Contains(sb.String(), "matrix verdict: PASS") {
		t.Fatalf("report rendering disagrees with results:\n%s", sb.String())
	}
}

// TestChaosCellWantFailENOSPC pins the clean-failure arm of the
// invariant: a destination whose ENOSPC budget cannot hold the dataset
// must fail every attempt cleanly and leave a loadable ledger.
func TestChaosCellWantFailENOSPC(t *testing.T) {
	if testing.Short() {
		t.Skip("needs live loopback transfers")
	}
	cell := ChaosCell{
		Name: "clean/enospc/none/mixed-4mb",
		Disk: chaos.DiskFault{Name: "enospc", CapacityBytes: 2 << 20},
		Load: quickChaosLoad(),
		Seed: 7, WantFail: true, MaxAttempts: 3, Timeout: time.Minute,
	}
	res := RunChaosCell(context.Background(), cell)
	if !res.Pass {
		t.Fatalf("ENOSPC cell failed its invariant: %s", res.Failure)
	}
	if res.Completed {
		t.Fatal("transfer completed past an impossible byte budget")
	}
	if res.DiskFaults == 0 {
		t.Fatal("no disk faults were injected")
	}
}

// TestCrossChaosCellsDerivations pins the matrix constructor's derived
// expectations: ENOSPC budgets under the dataset size become WantFail
// cells, kill/partition peers demand re-plan evidence.
func TestCrossChaosCellsDerivations(t *testing.T) {
	load := quickChaosLoad()
	cells := CrossChaosCells(
		[]chaos.LinkModel{{Name: "clean"}},
		[]chaos.DiskFault{{}, {Name: "enospc", CapacityBytes: 1 << 20}},
		[]chaos.PeerFault{{}, {Name: "kill-conn", KillDataAfterBytes: 1 << 20}},
		[]ChaosLoad{load})
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	byName := map[string]ChaosCell{}
	for _, c := range cells {
		byName[c.Name] = c
	}
	if c := byName["clean/enospc/none/mixed-4mb"]; !c.WantFail {
		t.Error("under-capacity ENOSPC cell not marked WantFail")
	}
	if c := byName["clean/none/kill-conn/mixed-4mb"]; c.MinReplans < 1 {
		t.Error("kill cell does not demand re-plan evidence")
	}
	if c := byName["clean/enospc/kill-conn/mixed-4mb"]; c.MinReplans != 0 {
		t.Error("WantFail cell must not demand re-plan evidence")
	}
	// Distinct cells get distinct seeds and session ids.
	s1 := cellSeed(1, cells[0].Name)
	s2 := cellSeed(1, cells[1].Name)
	if s1 == s2 {
		t.Error("cell seeds collide")
	}
	if chaosSessionID(cells[0].Name, s1) == chaosSessionID(cells[1].Name, s2) {
		t.Error("session ids collide")
	}
}
