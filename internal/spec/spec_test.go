package spec

import (
	"math"
	"strings"
	"testing"
)

func TestParseAndBuild(t *testing.T) {
	doc := `{
		"name": "demo",
		"task_size": 0.5,
		"servers": [
			{"name": "fast", "size": 2, "speed": 2.0, "special_rate": 1.0},
			{"size": 8, "speed": 1.0, "preload_fraction": 0.25}
		]
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.TaskSize != 0.5 {
		t.Fatalf("n=%d taskSize=%g", g.N(), g.TaskSize)
	}
	// preload_fraction 0.25: λ″ = 0.25·8·1.0/0.5 = 4.
	if math.Abs(g.Servers[1].SpecialRate-4) > 1e-12 {
		t.Fatalf("derived λ″ = %g, want 4", g.Servers[1].SpecialRate)
	}
	if math.Abs(g.Servers[1].SpecialUtilization(0.5)-0.25) > 1e-12 {
		t.Fatalf("ρ″ = %g, want 0.25", g.Servers[1].SpecialUtilization(0.5))
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	doc := `{"task_size": 1, "serverz": []}`
	if _, err := Parse(strings.NewReader(doc)); err == nil {
		t.Fatal("typo field should fail")
	}
	if _, err := Parse(strings.NewReader("{nope")); err == nil {
		t.Fatal("invalid JSON should fail")
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	spec := `{"servers":[{"size":1,"speed":1}]}`
	for _, tail := range []string{` {"servers":[{"size":9,"speed":9}]}`, ` trailing`, `]`} {
		if _, err := Parse(strings.NewReader(spec + tail)); err == nil {
			t.Errorf("Parse accepted %q after the spec", tail)
		}
	}
	if _, err := Parse(strings.NewReader(spec + " \n\t")); err != nil {
		t.Errorf("trailing white space rejected: %v", err)
	}
}

func TestBuildDefaultsTaskSize(t *testing.T) {
	s := &ClusterSpec{Servers: []ServerSpec{{Size: 1, Speed: 1}}}
	g, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.TaskSize != 1 {
		t.Fatalf("default task size = %g", g.TaskSize)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []ClusterSpec{
		{}, // no servers
		{TaskSize: -1, Servers: []ServerSpec{{Size: 1, Speed: 1}}},                         // bad task size
		{Servers: []ServerSpec{{Size: 0, Speed: 1}}},                                       // bad size
		{Servers: []ServerSpec{{Size: 1, Speed: 1, SpecialRate: 2, PreloadFraction: 0.5}}}, // both forms
		{Servers: []ServerSpec{{Size: 1, Speed: 1, PreloadFraction: 1.5}}},                 // bad fraction
		{Servers: []ServerSpec{{Size: 1, Speed: 1, SpecialRate: 2}}},                       // saturated
	}
	for i, c := range cases {
		if _, err := c.Build(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestBuildErrorNamesServer(t *testing.T) {
	s := &ClusterSpec{Servers: []ServerSpec{{Name: "edge-3", Size: 0, Speed: 1}}}
	_, err := s.Build()
	if err == nil || !strings.Contains(err.Error(), "edge-3") {
		t.Fatalf("error should name the server: %v", err)
	}
}

func TestWarnings(t *testing.T) {
	hot := &ClusterSpec{Servers: []ServerSpec{
		{Size: 2, Speed: 1, PreloadFraction: 0.95},
		{Size: 2, Speed: 1},
	}}
	warns := hot.Warnings()
	if len(warns) != 1 || !strings.Contains(warns[0], "95%") {
		t.Fatalf("expected preload warning, got %v", warns)
	}
	skewed := &ClusterSpec{Servers: []ServerSpec{
		{Size: 2, Speed: 0.1},
		{Size: 2, Speed: 5.0},
	}}
	warns = skewed.Warnings()
	if len(warns) != 1 || !strings.Contains(warns[0], "50×") {
		t.Fatalf("expected speed-ratio warning, got %v", warns)
	}
	calm := &ClusterSpec{Servers: []ServerSpec{{Size: 2, Speed: 1, PreloadFraction: 0.3}}}
	if warns := calm.Warnings(); len(warns) != 0 {
		t.Fatalf("unexpected warnings %v", warns)
	}
	invalid := &ClusterSpec{}
	if warns := invalid.Warnings(); warns != nil {
		t.Fatalf("invalid spec should warn nothing, got %v", warns)
	}
}

func TestBuiltinLiExample(t *testing.T) {
	g, err := Builtin("li-example")
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 7 || g.TotalBlades() != 56 {
		t.Fatalf("unexpected group n=%d m=%d", g.N(), g.TotalBlades())
	}
}

func TestBuiltinFigureSeries(t *testing.T) {
	g, err := Builtin("fig12:1")
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 12 group 1 sizes: (1,2,2,8,14,14,15).
	if g.Servers[0].Size != 1 || g.Servers[6].Size != 15 {
		t.Fatalf("wrong group: %+v", g.Servers)
	}
	if _, err := Builtin("fig12:0"); err == nil {
		t.Error("index 0 should fail")
	}
	if _, err := Builtin("fig12:6"); err == nil {
		t.Error("index beyond series should fail")
	}
	if _, err := Builtin("fig99:1"); err == nil {
		t.Error("unknown figure should fail")
	}
	if _, err := Builtin("bogus"); err == nil {
		t.Error("unknown builtin should fail")
	}
	if _, err := Builtin("fig12:x"); err == nil {
		t.Error("non-numeric index should fail")
	}
}

func TestBuiltinNamesAllResolve(t *testing.T) {
	names := BuiltinNames()
	// li-example + 12 figures × 5 series.
	if len(names) != 1+12*5 {
		t.Fatalf("%d names", len(names))
	}
	for _, n := range names {
		if _, err := Builtin(n); err != nil {
			t.Errorf("listed name %q does not resolve: %v", n, err)
		}
	}
}
