package marlin

import (
	"math"

	"automdt/internal/env"
)

// JointGD is the joint multivariate gradient-descent optimizer whose
// failure motivates AutoMDT (§III): the concurrency dimensions are
// optimized together against the *total* utility U = Σ tᵢ/k^{nᵢ} using
// finite-difference partial derivatives and a conventional decaying step
// size, round-robining over the four dimensions ⟨read, conns, streams,
// write⟩.
//
// The failure mode the paper describes emerges naturally: early in the
// transfer the staging buffers are empty, so probes of the network and
// write concurrency show zero or negative utility change (there is
// nothing to move yet) while read probes look great. Gradient descent
// therefore pours its large early steps into read concurrency and backs
// the others off. By the time the sender buffer fills — when network and
// write concurrency *should* rise — the step size has decayed below one
// thread and the optimizer is frozen in the local optimum, "never
// recovering".
type JointGD struct {
	// K is the utility penalty base (default env.DefaultK).
	K float64
	// Step0 is the initial step size in threads (default 3).
	Step0 float64
	// Decay is the per-decision multiplicative step decay (default 0.90).
	Decay float64

	step    float64
	coord   env.Stage // round-robin probe coordinate
	prevN   [env.StageCount]int
	prevU   float64
	dir     [env.StageCount]int
	haveObs bool
}

// NewJointGD creates the joint gradient-descent ablation controller.
func NewJointGD() *JointGD {
	return &JointGD{K: env.DefaultK, Step0: 3, Decay: 0.90}
}

// Name implements env.Controller.
func (j *JointGD) Name() string { return "joint-gd" }

// Decide implements env.Controller.
func (j *JointGD) Decide(s env.State) env.Action {
	k := j.K
	if k <= 0 {
		k = env.DefaultK
	}
	u := env.Utility(s.Throughput, env.Action{N: s.N}, k)

	var a env.Action
	a.N = s.N
	if !j.haveObs {
		j.haveObs = true
		j.step = j.Step0
		for i := range j.dir {
			j.dir[i] = 1
		}
		// First probe: perturb coordinate 0 (read).
		a.N[env.StageRead] += int(math.Round(j.step))
	} else {
		// Attribute the utility change to the coordinate we probed.
		i := j.coord
		dn := s.N[i] - j.prevN[i]
		if dn != 0 {
			g := (u - j.prevU) / float64(dn)
			if g > 0 {
				j.dir[i] = sign(dn)
			} else {
				j.dir[i] = -sign(dn)
			}
		}
		// Decay the step (standard 1/t-style cooling); once it rounds to
		// zero the coordinate is frozen — the "never recovers" regime.
		j.step *= j.Decay
		j.coord = (j.coord + 1) % env.StageCount
		d := int(math.Round(j.step))
		a.N[j.coord] += j.dir[j.coord] * d
	}
	j.prevN = s.N
	j.prevU = u
	return a.Clamp(1 << 30)
}

func sign(n int) int {
	if n < 0 {
		return -1
	}
	return 1
}
