package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestBuildRejectsNonFiniteAndFailureGaps pins the validation the
// fuzzer motivated: NaN/Inf preload fractions (expressible through the
// struct even though JSON cannot spell NaN), capacity overflow from
// finite inputs, and inconsistent failure fields.
func TestBuildRejectsNonFiniteAndFailureGaps(t *testing.T) {
	cases := []struct {
		name string
		c    ClusterSpec
	}{
		{"nan preload", ClusterSpec{Servers: []ServerSpec{{Size: 1, Speed: 1, PreloadFraction: math.NaN()}}}},
		{"inf preload", ClusterSpec{Servers: []ServerSpec{{Size: 1, Speed: 1, PreloadFraction: math.Inf(1)}}}},
		{"capacity overflow", ClusterSpec{TaskSize: 5e-324, Servers: []ServerSpec{{Size: 1 << 60, Speed: 1e300}}}},
		{"mtbf without mttr", ClusterSpec{Servers: []ServerSpec{{Size: 1, Speed: 1, MTBF: 100}}}},
		{"mttr without mtbf", ClusterSpec{Servers: []ServerSpec{{Size: 1, Speed: 1, MTTR: 5}}}},
		{"nan mtbf", ClusterSpec{Servers: []ServerSpec{{Size: 1, Speed: 1, MTBF: math.NaN(), MTTR: 5}}}},
		{"fail_blades without process", ClusterSpec{Servers: []ServerSpec{{Size: 4, Speed: 1, FailBlades: 2}}}},
		{"fail_blades beyond size", ClusterSpec{Servers: []ServerSpec{{Size: 2, Speed: 1, MTBF: 10, MTTR: 1, FailBlades: 3}}}},
	}
	for _, tc := range cases {
		if _, err := tc.c.Build(); err == nil {
			t.Errorf("%s: Build accepted invalid spec", tc.name)
		}
	}
}

func TestFailurePlanFromSpec(t *testing.T) {
	doc := `{"servers":[
		{"size":2,"speed":1},
		{"size":4,"speed":1,"mtbf":100,"mttr":5,"fail_blades":2}
	]}`
	c, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(); err != nil {
		t.Fatal(err)
	}
	plan := c.FailurePlan()
	if plan == nil {
		t.Fatal("expected a failure plan")
	}
	if plan.Stations[0].Enabled() {
		t.Error("server without mtbf/mttr should never fail")
	}
	if !plan.Stations[1].Enabled() || plan.Stations[1].Blades != 2 {
		t.Errorf("station 2 params = %+v", plan.Stations[1])
	}
	if a := plan.Stations[1].Availability(); math.Abs(a-100.0/105) > 1e-12 {
		t.Errorf("availability = %g", a)
	}
	// No failure fields anywhere → no plan.
	plain := &ClusterSpec{Servers: []ServerSpec{{Size: 1, Speed: 1}}}
	if plain.FailurePlan() != nil {
		t.Error("expected nil plan for never-failing cluster")
	}
}

// parseSeeds is the seed corpus of both fuzz targets on Parse.
var parseSeeds = []string{
	`{"servers":[{"size":1,"speed":1}]}`,
	`{"name":"x","task_size":0.5,"servers":[{"size":2,"speed":2,"special_rate":1},{"size":8,"speed":1,"preload_fraction":0.25}]}`,
	`{"task_size":1e308,"servers":[{"size":9007199254740993,"speed":1e308}]}`,
	`{"task_size":5e-324,"servers":[{"size":1,"speed":1e308}]}`,
	`{"servers":[{"size":1,"speed":1,"preload_fraction":0.999999}]}`,
	`{"servers":[{"size":1,"speed":1,"special_rate":1e309}]}`,
	`{"servers":[{"size":1,"speed":1,"mtbf":100,"mttr":5}]}`,
	`{"servers":[{"size":4,"speed":1,"mtbf":100,"mttr":5,"fail_blades":2}]}`,
	`{"servers":[{"size":1,"speed":1,"mtbf":-1,"mttr":5}]}`,
	`{"servers":[{"size":1,"speed":1,"fail_blades":3}]}`,
	`{"servers":[]}`,
	`{"servers":[{"size":-1,"speed":1}]}`,
	`{"servers":[{"size":1,"speed":0}]}`,
	`{"servers":[{"size":1,"speed":-0.0}]}`,
	`{"task_size":-0.0,"servers":[{"size":1,"speed":1}]}`,
	`[1,2,3]`,
	`{nope`,
	`{"task_size":"NaN","servers":[{"size":1,"speed":1}]}`,
	`{"servers":[{"size":1e999,"speed":1}]}`,
	`{"servers":[{"size":1,"speed":1}]} {"servers":[{"size":9,"speed":9}]}`,
	``,
}

// FuzzParse hammers the operator-facing JSON surface: whatever bytes
// arrive, Parse and Build must return an error or a valid group —
// never panic, and never hand the optimizer a group with non-finite
// parameters or non-finite derived capacity.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		c, err := Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		g, err := c.Build()
		if err != nil {
			// Build rejected it; Warnings must still be safe to call on
			// the unbuildable spec.
			_ = c.Warnings()
			return
		}
		// A group that Build accepted must be internally consistent.
		if err := g.Validate(); err != nil {
			t.Fatalf("Build returned invalid group for %q: %v", doc, err)
		}
		if math.IsNaN(g.TaskSize) || math.IsInf(g.TaskSize, 0) || g.TaskSize <= 0 {
			t.Fatalf("non-finite task size %g escaped Build: %q", g.TaskSize, doc)
		}
		for i, s := range g.Servers {
			for name, v := range map[string]float64{
				"speed":        s.Speed,
				"special_rate": s.SpecialRate,
				"capacity":     s.Capacity(g.TaskSize),
				"max_generic":  s.MaxGenericRate(g.TaskSize),
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("server %d: non-finite %s %g escaped Build: %q", i+1, name, v, doc)
				}
			}
		}
		if plan := c.FailurePlan(); plan != nil {
			if err := plan.Validate(); err != nil {
				t.Fatalf("Build accepted spec with invalid failure plan: %v (%q)", err, doc)
			}
		}
		_ = c.Warnings()
	})
}

// FuzzParseRoundTrip is the save/load check of the spec surface: a spec
// Parse accepts, written back with json.Marshal and parsed again, must
// build the same group, or fail Build with the same error, and carry
// the same failure plan. Marshalling the re-parsed spec must give the
// same bytes again.
func FuzzParseRoundTrip(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		c, err := Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		saved, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("Marshal of parsed spec %q: %v", doc, err)
		}
		c2, err := Parse(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("Parse rejects its own output %s (from %q): %v", saved, doc, err)
		}
		if again, err := json.Marshal(c2); err != nil || !bytes.Equal(again, saved) {
			t.Fatalf("second save %s (err %v) differs from first %s", again, err, saved)
		}
		g, err := c.Build()
		g2, err2 := c2.Build()
		if fmt.Sprint(err) != fmt.Sprint(err2) {
			t.Fatalf("Build error %v after round trip, %v before (%q → %s)", err2, err, doc, saved)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("round trip changed the group: %+v → %+v (%q → %s)", g, g2, doc, saved)
		}
		if err == nil && !reflect.DeepEqual(c.FailurePlan(), c2.FailurePlan()) {
			t.Fatalf("round trip changed the failure plan: %+v → %+v (%q → %s)", c.FailurePlan(), c2.FailurePlan(), doc, saved)
		}
	})
}
