package plan

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/queueing"
)

// bigFleet builds a clustered 256-station fleet for the fleet-scale
// planning paths.
func bigFleet() *model.Group {
	servers := make([]model.Server, 256)
	for i := range servers {
		k := i % 20
		s := model.Server{Size: 2 + 2*(k%8), Speed: 1.7 - 0.1*float64(k%7)}
		s.SpecialRate = 0.3 * float64(s.Size) * s.Speed
		servers[i] = s
	}
	return &model.Group{Servers: servers, TaskSize: 1.0}
}

// TestMaxAdmissibleRateSparseBitIdentical pins the admission frontier of
// the clustered fleet bit for bit. The literals were captured when
// dense and class-clustered solves were still two evaluators (and
// agreed); every probe of the bisection consumes a solve's T′, so a
// change to the last bits of any probe's T′ can move the frontier.
func TestMaxAdmissibleRateSparseBitIdentical(t *testing.T) {
	g := bigFleet()
	want := map[queueing.Discipline]map[float64]uint64{
		queueing.FCFS:     {1.0: 0x409953dab91f1a48, 1.5: 0x409cbbad90a90740, 3.0: 0x409eca76f6ab0928},
		queueing.Priority: {1.0: 0x4097d9b0bacedf3f, 1.5: 0x409bb1ce5a03401c, 3.0: 0x409e4417dbb687eb},
	}
	for d, bySLA := range want {
		for sla, bits := range bySLA {
			got, err := MaxAdmissibleRate(g, d, sla)
			if err != nil {
				t.Fatalf("%v sla=%g: %v", d, sla, err)
			}
			if math.Float64bits(got) != bits {
				t.Errorf("%v sla=%g: frontier %#016x (%.17g), want %#016x (%.17g)",
					d, sla, math.Float64bits(got), got, bits, math.Float64frombits(bits))
			}
		}
	}
}

// TestMinSpeedScaleSparseMatches pins the speed-refresh search on the
// same fleet at 0.6 of saturation, from an SLA it already meets (0.9)
// to ones that need a refresh, captured like the frontier above.
func TestMinSpeedScaleSparseMatches(t *testing.T) {
	g := bigFleet()
	lambda := 0.6 * g.MaxGenericRate()
	want := map[queueing.Discipline]map[float64]uint64{
		queueing.FCFS:     {0.9: 0x3ff0000000000000, 0.7: 0x3ff162b167e00000, 0.5: 0x3ff6b17f93e00000},
		queueing.Priority: {0.9: 0x3ff0000000000000, 0.7: 0x3ff1c5d0b4e00000, 0.5: 0x3ff718ed09600000},
	}
	for d, bySLA := range want {
		for sla, bits := range bySLA {
			got, err := MinSpeedScale(g, d, lambda, sla, 8)
			if err != nil {
				t.Fatalf("%v sla=%g: %v", d, sla, err)
			}
			if math.Float64bits(got) != bits {
				t.Errorf("%v sla=%g: scale %#016x (%.17g), want %#016x (%.17g)",
					d, sla, math.Float64bits(got), got, bits, math.Float64frombits(bits))
			}
		}
	}
}
