package serve

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
)

// Plan is an immutable routing plan: one solve of the paper's optimal
// load distribution frozen together with the probabilistic picker that
// realizes it. The daemon publishes plans through an atomic pointer;
// every request works from the snapshot it loaded, so a background
// swap never tears an in-flight request's view.
type Plan struct {
	// Version increments with every accepted re-solve.
	Version int64 `json:"version"`
	// Lambda is the total generic arrival rate λ′ the plan was solved
	// for (the admitted portion when Shed > 0).
	Lambda float64 `json:"lambda"`
	// Rates are the optimal per-station rates λ′_i; down stations carry
	// zero and are never picked.
	Rates []float64 `json:"rates"`
	// Phi is the Lagrange multiplier at the optimum — the warm start
	// for the next re-solve.
	Phi float64 `json:"phi"`
	// AvgResponseTime is the minimized T′ under the plan.
	AvgResponseTime float64 `json:"avg_response_time"`
	// Utilizations are the per-station ρ_i under the plan.
	Utilizations []float64 `json:"utilizations"`
	// Up echoes the availability vector the solve ran against (nil
	// means all stations up).
	Up []bool `json:"up,omitempty"`
	// Survivors is the number of stations up, breaker exclusions
	// applied.
	Survivors int `json:"survivors"`
	// Capacity is the admission ceiling: the λ′ at which some surviving
	// station would be pushed to ρ_i ≥ 1 (less the solver's stability
	// margin), exactly the ceiling the solve's admission control
	// applied (core.Fleet.AdmissionCeiling). Requests estimated beyond
	// it are shed with 503s.
	Capacity float64 `json:"capacity"`
	// Admitted and Shed report degraded-mode admission control: when
	// the requested λ′ exceeded Capacity the solve distributed Admitted
	// and the daemon sheds the Shed remainder probabilistically.
	Admitted float64 `json:"admitted"`
	Shed     float64 `json:"shed"`
	// Ramp, when non-nil, records the capped-weight recovery factors
	// applied after the solve: station i carries Ramp[i]×its optimal
	// share (renormalized), < 1 while it ramps back in after a
	// breaker-driven readmission.
	Ramp []float64 `json:"ramp,omitempty"`
	// SolvedAt stamps the solve (the daemon's injected clock).
	SolvedAt time.Time `json:"solved_at"`
	// Policy names the dispatch policy realizing the plan ("jsq2",
	// "jsq3"… under Config.PolicyJSQ; empty for the static split).
	Policy string `json:"policy,omitempty"`

	picker *dispatch.Probabilistic
	// jsq, when non-nil, overrides the static picker with power-of-d
	// sampled dispatch over the plan's loaded stations (Decide's JSQ
	// branch). The static picker is still built — redirect redraws and
	// repick fall back to it.
	jsq *dispatch.PowerOfD
}

// Pick draws one routing decision from the plan's distribution.
func (p *Plan) Pick(rng *rand.Rand) int {
	return p.picker.Pick(nil, rng)
}

// PickU draws one routing decision using a caller-supplied uniform
// variate u ∈ [0, 1) — the lock-free entry point: the caller owns the
// randomness, so concurrent dispatchers never share generator state.
func (p *Plan) PickU(u float64) int {
	return p.picker.PickU(u)
}

// buildPlan re-solves the paper's optimization over the stations up
// (the tally up; every station for nil) and freezes the result. The
// plan's Up echo is up's own vector, nil when every station is up, so
// up must not change afterwards. Overload is not an error:
// OptimizeDegraded's admission control sheds the minimal rate and the
// plan records it.
// A non-nil ramp vector applies capped-weight recovery after the
// solve: each station's optimal rate is scaled by ramp[i] and the
// total renormalized back to the admitted λ′, so a just-readmitted
// station re-enters at a fraction of its share while the survivors
// briefly absorb the withheld remainder. Utilizations are rescaled
// proportionally; the transient overshoot on the absorbers is bounded
// by the withheld fraction and decays to zero across the ramp window.
//
// jsqD > 0 additionally builds the power-of-d picker over the solve's
// loaded stations: only stations the plan assigns positive rate are
// sampleable (so breaker exclusions and degraded re-solves gate JSQ
// exactly as they gate the static split), each scored against its net
// generic capacity m_i·s_i/r̄ − λ″_i, ramp-scaled during capped-weight
// recovery so a readmitted station also loses JSQ comparisons until
// its ramp completes.
func buildPlan(fleet *core.Fleet, lambda float64, up *core.Tally, opts core.Options, version int64, now time.Time, ramp []float64, jsqD int, depths *depthSet) (*Plan, error) {
	res, err := fleet.OptimizeDegraded(lambda, up, opts)
	if err != nil {
		return nil, err
	}
	rates := res.Rates
	utils := res.Utilizations
	rescaled := false
	var rampOut []float64
	if ramp != nil {
		scaled := make([]float64, len(rates))
		sum := 0.0
		for i, r := range rates {
			f := 1.0
			if i < len(ramp) && ramp[i] > 0 && ramp[i] < 1 {
				f = ramp[i]
			}
			scaled[i] = r * f
			sum += scaled[i]
		}
		if sum > 0 && res.Admitted > 0 {
			norm := res.Admitted / sum
			newUtils := make([]float64, len(utils))
			for i := range scaled {
				scaled[i] *= norm
				if i < len(utils) && rates[i] > 0 {
					newUtils[i] = utils[i] * scaled[i] / rates[i]
				}
			}
			rates = scaled
			utils = newUtils
			rampOut = append([]float64(nil), ramp...)
			rescaled = true
		}
	}
	// Without a ramp rescale, the picker's cumulative table can cover
	// only the loaded stations: the solve's compact allocation, which
	// it carries exactly when the compact table is worth its index
	// indirection (a fleet large enough to matter, an allocation at most
	// half full). Picks are identical to the dense construction
	// (zero-weight stations have empty intervals either way, and
	// Kahan-summed zero weights don't perturb the normalization).
	var picker *dispatch.Probabilistic
	if sp := res.Sparse; !rescaled && sp != nil {
		picker, err = dispatch.NewProbabilisticSparse(len(rates), sp.Index, sp.Rate)
	} else {
		picker, err = dispatch.NewProbabilistic(rates)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: building picker: %w", err)
	}
	var jsq *dispatch.PowerOfD
	policy := "static"
	if jsqD > 0 {
		g := fleet.Group()
		idx := make([]int32, 0, len(rates))
		caps := make([]float64, 0, len(rates))
		for i, r := range rates {
			if r <= 0 {
				continue
			}
			c := g.Servers[i].MaxGenericRate(g.TaskSize)
			if c <= 0 {
				continue // no generic headroom: unscorable, never sample it
			}
			if rampOut != nil && i < len(rampOut) && rampOut[i] > 0 && rampOut[i] < 1 {
				c *= rampOut[i]
			}
			idx = append(idx, int32(i))
			caps = append(caps, c)
		}
		jsq, err = dispatch.NewPowerOfD(jsqD, len(rates), idx, caps, depths)
		if err != nil {
			return nil, fmt.Errorf("serve: building jsq picker: %w", err)
		}
		policy = jsq.Name()
	}
	return &Plan{
		Version:         version,
		Lambda:          res.Admitted,
		Rates:           rates,
		Phi:             res.Phi,
		AvgResponseTime: res.AvgResponseTime,
		Utilizations:    utils,
		Up:              res.Up,
		Survivors:       res.Survivors,
		Capacity:        fleet.AdmissionCeiling(up, opts),
		Admitted:        res.Admitted,
		Shed:            res.Shed,
		SolvedAt:        now,
		Ramp:            rampOut,
		Policy:          policy,
		picker:          picker,
		jsq:             jsq,
	}, nil
}
