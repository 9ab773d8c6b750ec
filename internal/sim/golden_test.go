package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/failure"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runGoldens pins one SHA-256 of runFingerprint per run. The keys name
// discipline, seed and scenario. The hashes were captured from the
// simulator whose calendar swapped whole events in a binary heap and
// whose dispatcher views were rebuilt at every generic arrival, so any
// change to the event order or to the random draws fails here.
var runGoldens = map[string]string{
	"fcfs/1/drop-in-flight":                         "408bb6b252c1c4e5b1b427826132f8ebcbe0d3b83e45b494df6828f54e0bce36",
	"fcfs/1/drop-in-flight+retry+cap":               "62434adc3b697cfba29545e0470a7075658b61b754ddcae76e28cf1281c68533",
	"fcfs/1/jsq":                                    "a9aac360f12d87340cf2782890f174f2d7256ec3a72faaa7e651e801606238a1",
	"fcfs/1/optimal":                                "6e74ff212aa3a3046aba8bd933e7ab85bb02949e7daae0cc1a90ec9fe409cd44",
	"fcfs/1/replay-jsq":                             "9df228cb240e9e1bfeee0dedc2adb23025205ae1631dd9c4b157506affee6e63",
	"fcfs/1/replay-optimal":                         "32f73220b4bcd3ea3314aceee50959d2794cc2c7683b26cfe7abe4b6769b1ff0",
	"fcfs/1/requeue-in-flight":                      "4a31253ab94358a6d9808679c0b60060ed8ee1e2cc7c8794e11f5b2a64713814",
	"fcfs/1/requeue-in-flight+retry+cap":            "772f06585877d85e1cd7dec58d7be63b3752c64f0fc6194d69e6ecda01127ccd",
	"fcfs/2/drop-in-flight":                         "10c0a8ae23a7c0ca84bac727fb22520c8debbfb33729a72cff686a06a0dfdb4f",
	"fcfs/2/drop-in-flight+retry+cap":               "cc85ea9028376f5e7f9a55b024f6d81f4122380895fbfffa441bbcbb4c422fb1",
	"fcfs/2/jsq":                                    "f8d530a0ede2aa75cf28d1765bcdeaa5db28057f2662559b439233852abb94a8",
	"fcfs/2/optimal":                                "54a797faa00c32083254adaa1b8f7b51662d4916c046754f59ebe0241c9e136e",
	"fcfs/2/replay-jsq":                             "047d06148fad3587f377cebeda9e46da03ff35f550ca3d4f6077234e6e771a79",
	"fcfs/2/replay-optimal":                         "f62abaf82d16033c59a5c0317955abdc1360f553d141dbbdd56b658fa59b624d",
	"fcfs/2/requeue-in-flight":                      "faec63aeb3dd472a18f6c40ad827548da9c7e38580fd5760606d795b2ff349f9",
	"fcfs/2/requeue-in-flight+retry+cap":            "c8a67585192ff9cedb28f2ef24502655a8539e2a9f50ff463496b28ee30baef8",
	"fcfs/20261017/drop-in-flight":                  "4d58630cc273656f0da289a7813fa3b2a6defb7c2945f7eb0113e5f5447d15f7",
	"fcfs/20261017/drop-in-flight+retry+cap":        "0f3ad8e56d86d9bbefab1ba800611905ffb440f87fc78529eb7000ed6ae15ce1",
	"fcfs/20261017/jsq":                             "93788d366d9abae5362c95b0ef39ae6f57f7aad2ac5c00da8512f877de020ff5",
	"fcfs/20261017/optimal":                         "2080503120073507a98ebc8a57be86bc997afc13a887e469cff5abbc10dc26eb",
	"fcfs/20261017/replay-jsq":                      "3b67c440255395417170b05aafc6f5cb0025b7e8d111d67c8dd730fb9f1f163d",
	"fcfs/20261017/replay-optimal":                  "26d7923f4ae3693ae2f79fe6bf7237f0a45100eae7cba7cadc4850098cf7765c",
	"fcfs/20261017/requeue-in-flight":               "c72d958046841b61b3357d8c0a10a4ae998c1d3c9c98d33fe7cc9582428551c8",
	"fcfs/20261017/requeue-in-flight+retry+cap":     "8d8a54f604a1e661abc9e51638e113f9563f2a08308113c3fb73a8b63a14a5b1",
	"fcfs/replications":                             "bf00443790aeee29982fec2574561dd3e5f0cf488d0726af031473e21d5e245d",
	"priority/1/drop-in-flight":                     "a204b157453d9472942d3b9e2b760cc247091d4fde865b8fc4e0a5741151604f",
	"priority/1/drop-in-flight+retry+cap":           "bcdb606787d4722e1224def59344dcd045d8edda6fa151d3bca3a6b8f2da98a2",
	"priority/1/jsq":                                "b217e7e62389429500b4ebc193850a99ea43f55dc0de26528d30ccbbd70c9d6e",
	"priority/1/optimal":                            "13431cbe21b307e2fff06f4f890d62adf7241a5962ae219cab740d7bf8fb7eed",
	"priority/1/replay-jsq":                         "9df228cb240e9e1bfeee0dedc2adb23025205ae1631dd9c4b157506affee6e63",
	"priority/1/replay-optimal":                     "f8525238b736f45152838e8a0aed0a86e0119a0bed2673c2529625dcdd201612",
	"priority/1/requeue-in-flight":                  "a82ca387a85b25bbc39679af99725230e04604f08c3d838089ac162f95f87d26",
	"priority/1/requeue-in-flight+retry+cap":        "538d8717fdbc47131a34f76fd74daaa06e81dfd90fa7e95e868498663b5092c7",
	"priority/2/drop-in-flight":                     "3e191aa94e778941f12b0a6c2cf45f7459e57d1e0f1055e48962dc050d141bdf",
	"priority/2/drop-in-flight+retry+cap":           "c89fb4a5f5800fe492b3bf43c7b4f692c3ba5d974727f6a65acf0054fd898934",
	"priority/2/jsq":                                "b38b8d84c7cb99252729befcb6e6ab7aef1249deeac8d80b896277c1a4e4e607",
	"priority/2/optimal":                            "b49dbc05ecba09144d221250f02509179220e00c67f53138d4569a141c2c780c",
	"priority/2/replay-jsq":                         "047d06148fad3587f377cebeda9e46da03ff35f550ca3d4f6077234e6e771a79",
	"priority/2/replay-optimal":                     "6f78b19cbbc4e892560e79f2e6426cb219037f3a7577f5763064160f7ef4a4c4",
	"priority/2/requeue-in-flight":                  "af42b3e7c740633d42e7cc4a6c167736a6b36f40eae744fc35e24428655cef6c",
	"priority/2/requeue-in-flight+retry+cap":        "b2ea529b9a8d3a37afa6ebdb2ac1a7fd3b5c09fc2ab50d7960590e28653189b2",
	"priority/20261017/drop-in-flight":              "c46132e66b2d36f5424e1b442239a200d5fa7e2e8b556ef4f5b5842f97d9796e",
	"priority/20261017/drop-in-flight+retry+cap":    "cacc0bda73c1bf81b3235174dba145dc418e58b3dc82eef24fd4498c7669bc5b",
	"priority/20261017/jsq":                         "2031024fc46b34659f48b9ede4dc689228b25e2b79d67c0f98f82fdc13a233cf",
	"priority/20261017/optimal":                     "6e140de12b4981e6c53c4fb4515667b849c0951af2154886260c6c532c0cb626",
	"priority/20261017/replay-jsq":                  "f92c6a58568b26d06cc96e935a193d28a7b3be2d21ff93213916db4f01af890f",
	"priority/20261017/replay-optimal":              "e47ddcd52fae32badc49646369316ed6dc88f7ebc964ff5ddda41e4d320f2fdf",
	"priority/20261017/requeue-in-flight":           "791f06f8f03642474912ce3361cd69c430cc725fa63ad8dc98a739981b9b9113",
	"priority/20261017/requeue-in-flight+retry+cap": "b8f76b2ef270ace186e32fed7aad6ed70cb75287d78c11e1a6b78847bd785c35",
	"priority/replications":                         "4763fc44ed8b9ab095c9def9f04a4cc26520ae2a833ad26049b88e0bce86ffbe",
}

// runFingerprint writes every statistic of r that a change of sample
// path could move, as IEEE-754 bit patterns and exact counts.
func runFingerprint(r *sim.RunResult) string {
	var b strings.Builder
	bits := func(name string, x float64) { fmt.Fprintf(&b, "%s=%016x\n", name, math.Float64bits(x)) }
	bits("generic.mean", r.GenericResponse.Mean())
	bits("generic.var", r.GenericResponse.Variance())
	bits("special.mean", r.SpecialResponse.Mean())
	bits("generic.p95", r.GenericP95)
	bits("healthy.mean", r.GenericHealthy.Mean())
	bits("degraded.mean", r.GenericDegraded.Mean())
	for i, u := range r.Utilizations {
		bits(fmt.Sprintf("util[%d]", i), u)
	}
	for i, w := range r.PerStationGeneric {
		bits(fmt.Sprintf("station[%d].mean", i), w.Mean())
		fmt.Fprintf(&b, "station[%d].n=%d\n", i, w.Count())
	}
	for i, d := range r.Downtime {
		bits(fmt.Sprintf("downtime[%d]", i), d)
	}
	bits("clock", r.Clock)
	fmt.Fprintf(&b, "counts=%d/%d %d/%d %d/%d %d/%d %d/%d %d %d/%d %d/%d\n",
		r.ArrivedGeneric, r.ArrivedSpecial, r.CompletedGeneric, r.CompletedSpecial,
		r.BlockedGeneric, r.BlockedSpecial, r.LostGeneric, r.LostSpecial,
		r.RequeuedGeneric, r.RequeuedSpecial, r.RetriedGeneric,
		r.GenericResponse.Count(), r.SpecialResponse.Count(),
		r.GenericHealthy.Count(), r.GenericDegraded.Count())
	return b.String()
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// upAware follows the optimal split while the picked station is up and
// otherwise sends the task to the up station with the most free
// non-failed blades, so its picks depend on Up, AvailableBlades and Busy.
type upAware struct{ inner sim.Dispatcher }

func (d upAware) Name() string { return "up-aware(" + d.inner.Name() + ")" }

func (d upAware) Pick(views []sim.StationView, rng *rand.Rand) int {
	p := d.inner.Pick(views, rng)
	if views[p].Up {
		return p
	}
	best, free := p, math.MinInt
	for i, v := range views {
		if f := v.AvailableBlades - v.Busy; v.Up && f > free {
			best, free = i, f
		}
	}
	return best
}

// goldenSchedules is a fixed outage trace for Example 1: whole-station
// failures on some stations and partial blade failures on the others.
func goldenSchedules(t *testing.T, g *model.Group, horizon float64) []failure.Schedule {
	t.Helper()
	scheds := make([]failure.Schedule, g.N())
	for i, s := range g.Servers {
		p := failure.Params{MTBF: 150, MTTR: 25, Blades: i % 3}
		sch, err := failure.Generate(p, s.Size, horizon, rand.New(rand.NewSource(int64(100+i))))
		if err != nil {
			t.Fatal(err)
		}
		scheds[i] = sch
	}
	return scheds
}

// TestSimulatorGoldens pins the sample paths of Run, Replay and
// RunReplications on Example 1 at half of saturation: the optimal
// split, JSQ, explicit failure schedules under both failure policies
// with a health-aware dispatcher, and the same with retries and a
// bounded waiting room, under both disciplines and three seeds.
func TestSimulatorGoldens(t *testing.T) {
	const horizon, warmup = 1000.0, 100.0
	g := model.LiExample1Group()
	lambda := 0.5 * g.MaxGenericRate()
	scheds := goldenSchedules(t, g, horizon)
	retry := &sim.RetryPolicy{MaxAttempts: 1, Base: 0.5, Cap: 4}

	got := map[string]string{}
	texts := map[string]string{}
	record := func(key string, r *sim.RunResult) {
		texts[key] = runFingerprint(r)
		got[key] = digest(texts[key])
	}
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		opt, err := core.Optimize(g, lambda, core.Options{Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		split, err := dispatch.NewProbabilistic(opt.Rates)
		if err != nil {
			t.Fatal(err)
		}
		base := sim.Config{Group: g, Discipline: d, GenericRate: lambda, Dispatcher: split,
			Horizon: horizon, Warmup: warmup}
		for _, seed := range []int64{1, 2, 20261017} {
			runs := map[string]sim.Config{}
			c := base
			runs["optimal"] = c
			c.Dispatcher = dispatch.JSQ{}
			runs["jsq"] = c
			for _, fp := range []sim.FailurePolicy{sim.RequeueInFlight, sim.DropInFlight} {
				c := base
				c.Dispatcher = upAware{split}
				c.FailureSchedules = scheds
				c.FailurePolicy = fp
				runs[fp.String()] = c
				c.Retry = retry
				c.QueueCapacity = 12
				runs[fp.String()+"+retry+cap"] = c
			}
			for name, c := range runs {
				c.Seed = seed
				res, err := sim.Run(c)
				if err != nil {
					t.Fatalf("%v seed %d %s: %v", d, seed, name, err)
				}
				record(fmt.Sprintf("%v/%d/%s", d, seed, name), res)
			}
			tr, err := trace.Generate(trace.Config{Group: g, GenericRate: lambda, Horizon: horizon, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for name, disp := range map[string]sim.Dispatcher{"optimal": split, "jsq": dispatch.JSQ{}} {
				res, err := sim.Replay(sim.ReplayConfig{Group: g, Discipline: d, Trace: tr,
					Dispatcher: disp, Warmup: warmup, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				record(fmt.Sprintf("%v/%d/replay-%s", d, seed, name), res)
			}
		}
		c := base
		c.Seed = 20261017
		rep, err := sim.RunReplications(c, 3, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, x := range []float64{rep.GenericT.Mean, rep.GenericT.HalfWidth, rep.SpecialT.Mean, rep.SpecialT.HalfWidth} {
			fmt.Fprintf(&b, "%016x\n", math.Float64bits(x))
		}
		for _, u := range rep.Utilizations {
			fmt.Fprintf(&b, "%016x\n", math.Float64bits(u))
		}
		for _, r := range rep.Runs {
			b.WriteString(runFingerprint(r))
		}
		key := fmt.Sprintf("%v/replications", d)
		texts[key] = b.String()
		got[key] = digest(texts[key])
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if want, ok := runGoldens[k]; !ok || got[k] != want {
			bad++
			t.Errorf("%s: digest %s, want %q\n%s", k, got[k], want, texts[k])
		}
	}
	if len(runGoldens) != len(got) {
		t.Errorf("%d goldens pinned, %d runs made", len(runGoldens), len(got))
	}
	if bad > 0 {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("observed digests:\n%s", b.String())
	}
}
