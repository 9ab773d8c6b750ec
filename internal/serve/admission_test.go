package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/queueing"
)

// TestPostPlanCeilingIsCores pins that POST /v1/plan's 503 check, the
// plan's published Capacity and core's admission control are one
// ceiling. On random paper fleets with about a tenth of the stations
// down, with and without a utilization cap, and with breakers off or
// on with one station's breaker open: a request for exactly the
// published Capacity is refused with 503; one ulp below it is admitted
// in full; and core sheds an overload over the stations serving down
// to exactly Capacity.
func TestPostPlanCeilingIsCores(t *testing.T) {
	type fleet struct {
		name string
		g    *model.Group
	}
	var fleets []fleet
	// The repository's 10k signature fleet, where a differently summed
	// ceiling reads 18 ulps below core's.
	sizes, speeds := make([]int, 10000), make([]float64, 10000)
	for i := range sizes {
		sizes[i] = 2 + 2*(i%8)
		speeds[i] = 1.7 - 0.1*float64(i%7)
	}
	g, err := model.PaperGroup(sizes, speeds, 1.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	fleets = append(fleets, fleet{"signature n=10000", g})
	rng := rand.New(rand.NewSource(20261019))
	for k := 0; k < 12; k++ {
		n := 8 + rng.Intn(1200)
		sizes, speeds := make([]int, n), make([]float64, n)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(16)
			speeds[i] = 0.5 + 1.5*rng.Float64()
		}
		g, err := model.PaperGroup(sizes, speeds, 1.0, 0.1+0.5*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		fleets = append(fleets, fleet{fmt.Sprintf("random n=%d", n), g})
	}
	for _, fl := range fleets {
		for _, rhoCap := range []float64{0, 0.9} {
			for _, tripped := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/cap=%g/tripped=%t", fl.name, rhoCap, tripped), func(t *testing.T) {
					ceilingIsCores(t, fl.g, rhoCap, tripped, rng)
				})
			}
		}
	}
}

// ceilingIsCores runs TestPostPlanCeilingIsCores's checks on one fleet.
// With tripped set, breakers are on and one operator-up station's
// breaker is held open, so it serves no share.
func ceilingIsCores(t *testing.T, g *model.Group, rhoCap float64, tripped bool, rng *rand.Rand) {
	opts := core.Options{Discipline: queueing.FCFS, MaxUtilization: rhoCap}
	s, err := New(Config{
		Group: g, Lambda: 0.2 * g.MaxGenericRate(), Opts: opts,
		Window: time.Hour, MinResolveInterval: time.Hour,
		Breaker: BreakerConfig{Disabled: !tripped}, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	up := make([]bool, g.N())
	for i := range up {
		up[i] = rng.Intn(10) != 0
		s.setOperatorUp(i, up[i])
	}
	if tripped {
		i := rng.Intn(g.N())
		for !up[i] {
			i = (i + 1) % g.N()
		}
		b := &s.breakers.stations[i]
		b.openUntil.Store(s.now().Add(time.Hour).UnixNano())
		s.breakers.setState(b, breakerOpen)
		up[i] = false
	}
	h := s.Handler()
	post := func(lambda float64) (int, *Plan) {
		body := `{"lambda": ` + strconv.FormatFloat(lambda, 'g', -1, 64) + `}`
		w := postJSON(t, h, "/v1/plan", json.RawMessage(body))
		if w.Code != http.StatusOK {
			return w.Code, nil
		}
		var p Plan
		if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		return w.Code, &p
	}
	// A re-plan over the survivors publishes their ceiling.
	code, p := post(0.2 * g.MaxGenericRate())
	if code != http.StatusOK {
		t.Fatalf("re-plan at 0.2 of saturation: status %d", code)
	}
	ceiling := p.Capacity
	res, err := core.OptimizeDegraded(g, 2*ceiling, up, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != ceiling {
		t.Errorf("core sheds to %v (%#x), plan Capacity %v (%#x)",
			res.Admitted, math.Float64bits(res.Admitted), ceiling, math.Float64bits(ceiling))
	}
	if code, _ := post(ceiling); code != http.StatusServiceUnavailable {
		t.Errorf("λ′ = Capacity: status %d, want 503", code)
	}
	below := math.Nextafter(ceiling, 0)
	code, p = post(below)
	if code != http.StatusOK {
		t.Fatalf("λ′ one ulp below Capacity: status %d, want 200", code)
	}
	if p.Shed != 0 || p.Admitted != below {
		t.Errorf("λ′ one ulp below Capacity: admitted %v shed %v, want %v and 0", p.Admitted, p.Shed, below)
	}
}
