package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/assign"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/temporal"
)

func quickCfg() Config { return Config{Seed: 12345, Quick: true} }

func TestAllExperimentsRegistered(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("registered %d experiments, want 18", len(all))
	}
	seen := map[string]bool{}
	for i, e := range all {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Fatalf("experiment %d has id %s, want %s", i, e.ID, want)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Anchor == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if e, ok := ByID("E5"); !ok || e.ID != "E5" {
		t.Fatal("ByID(E5) failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) should fail")
	}
}

// TestByIDRoundTripsEveryEntry: ByID must return exactly the registry entry
// for every registered id — the lookup the service's submit path depends on.
func TestByIDRoundTripsEveryEntry(t *testing.T) {
	for _, want := range All() {
		got, ok := ByID(want.ID)
		if !ok {
			t.Fatalf("ByID(%s) not found", want.ID)
		}
		if got.ID != want.ID || got.Title != want.Title || got.Anchor != want.Anchor || got.Run == nil {
			t.Fatalf("ByID(%s) returned a different entry: %+v", want.ID, got)
		}
	}
}

// TestEveryExperimentRunsQuick executes all drivers at quick scale and
// checks they produce non-empty, well-formed output.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are slow-ish")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res := e.Run(quickCfg())
			if len(res.Tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range res.Tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s produced empty table %q", e.ID, tb.Title)
				}
				out := tb.Render()
				if !strings.Contains(out, e.ID[:2]) {
					t.Fatalf("%s table title missing id: %q", e.ID, tb.Title)
				}
				// CSV and Markdown must render without panicking and keep
				// the row count.
				if strings.Count(tb.CSV(), "\n") != len(tb.Rows)+1 {
					t.Fatalf("%s CSV row count mismatch", e.ID)
				}
				_ = tb.Markdown()
			}
			for _, fig := range res.Figures {
				if fig == "" {
					t.Fatalf("%s produced an empty figure", e.ID)
				}
			}
		})
	}
}

// TestLabeledTrialsRelabelInPlace pins the trial route: every trial that
// measures one randomly labeled network over a fixed substrate (E1–E8 and
// E11–E14 here, with E6 and E8 through core's r(n) probes) relabels a
// per-worker network in place, and no driver falls back to rebuilding a
// network per batched trial. It reads process-wide counters, so it must
// not run in parallel with other tests of this package.
func TestLabeledTrialsRelabelInPlace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every driver")
	}
	resample := obs.Default().Counter("sim_batch_resample_trials_total", "")
	rebuild := obs.Default().Counter("sim_batch_rebuild_trials_total", "")
	relabels := map[string]bool{}
	for _, id := range strings.Fields("E1 E2 E3 E4 E5 E6 E7 E8 E11 E12 E13 E14") {
		relabels[id] = true
	}
	for _, e := range All() {
		r0, b0 := resample.Value(), rebuild.Value()
		e.Run(Config{Seed: 1, Quick: true})
		if d := rebuild.Value() - b0; d != 0 {
			t.Errorf("%s: %d batched trials rebuilt their network", e.ID, d)
		}
		if relabels[e.ID] && resample.Value() == r0 {
			t.Errorf("%s: no trial relabeled a network in place", e.ID)
		}
	}
}

// TestE1DiameterShape checks the headline result at small scale: TD/ln n
// stays within a modest constant band while n quadruples — the Θ(log n)
// shape.
func TestE1DiameterShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res := E1Diameter(quickCfg())
	tdOverLog := make([]float64, 0, 3)
	for _, row := range res.Tables[0].Rows {
		v, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatalf("bad TD/ln n cell %q", row[6])
		}
		tdOverLog = append(tdOverLog, v)
	}
	for _, v := range tdOverLog {
		if v < 0.5 || v > 8 {
			t.Fatalf("TD/ln n = %v outside the constant band", tdOverLog)
		}
	}
	// Ratio between largest and smallest n must stay ~constant (within 2x),
	// which a linear-in-n diameter would badly violate.
	if tdOverLog[len(tdOverLog)-1] > 2*tdOverLog[0]+1 {
		t.Fatalf("TD/ln n drifting: %v", tdOverLog)
	}
}

// TestE5TransitionShape: success rate must be (noisily) non-decreasing in ρ
// and reach ~1 by ρ=4 at quick scale.
func TestE5TransitionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res := E5StarReachability(quickCfg())
	var rates []float64
	for _, row := range res.Tables[0].Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad rate cell %q", row[3])
		}
		rates = append(rates, v)
	}
	last := rates[len(rates)-1]
	if last < 0.85 {
		t.Fatalf("rate at largest rho = %v, want ≈1 (rates %v)", last, rates)
	}
	if rates[0] > last {
		t.Fatalf("rates not increasing: %v", rates)
	}
}

// TestE9ThresholdShape: connectivity at c=0.5 must be rare and at c=1.5
// near-certain for the larger n.
func TestE9ThresholdShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res := E9GnpConnectivity(quickCfg())
	rows := res.Tables[0].Rows
	byKey := map[string]float64{}
	for _, row := range rows {
		v, _ := strconv.ParseFloat(row[3], 64)
		byKey[row[0]+"/"+row[1]] = v
	}
	if byKey["512/0.50"] > 0.2 {
		t.Fatalf("G(512, 0.5·ln n/n) connected too often: %v", byKey)
	}
	if byKey["512/1.50"] < 0.8 {
		t.Fatalf("G(512, 1.5·ln n/n) disconnected too often: %v", byKey)
	}
}

func TestSerialDiameterMatchesParallel(t *testing.T) {
	g := graph.Clique(48, true)
	lab := assign.NormalizedURTN(g, rng.New(5))
	net := temporal.MustNew(g, 48, lab)
	serial := serialDiameter(net, 48, rng.New(1))
	exact := temporal.Diameter(net)
	if serial.Max != exact.Max || serial.AllReachable != exact.AllReachable {
		t.Fatalf("serialDiameter %+v != Diameter %+v", serial, exact)
	}
}

func TestSerialDiameterSampledIsLowerBound(t *testing.T) {
	g := graph.Clique(64, true)
	lab := assign.NormalizedURTN(g, rng.New(9))
	net := temporal.MustNew(g, 64, lab)
	full := serialDiameter(net, 64, rng.New(1))
	sampled := serialDiameter(net, 8, rng.New(2))
	if sampled.Max > full.Max {
		t.Fatalf("sampled diameter %d exceeds full %d", sampled.Max, full.Max)
	}
	if sampled.Pairs >= full.Pairs {
		t.Fatal("sampling did not reduce evaluated pairs")
	}
}

func TestSmallestConnectedPrefix(t *testing.T) {
	// Path 0-1-2 with labels 3 and 8: prefix connects exactly at 8.
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	net := temporal.MustNew(b.Build(), 10, temporal.LabelingFromSets([][]int{{3}, {8}}))
	if got := temporal.ConnectedPrefix(net, nil); got != 8 {
		t.Fatalf("prefix time = %d, want 8", got)
	}
	// Never connects: edge missing labels entirely.
	b2 := graph.NewBuilder(2, false)
	b2.AddEdge(0, 1)
	net2 := temporal.MustNew(b2.Build(), 5, temporal.LabelingFromSets([][]int{{}}))
	if got := temporal.ConnectedPrefix(net2, nil); got != 6 {
		t.Fatalf("unconnectable prefix = %d, want lifetime+1", got)
	}
}

// TestE3ExpansionShape: Algorithm 1 must succeed essentially always at
// quick scale and its constructed arrivals must stay within the plan
// bound column.
func TestE3ExpansionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res := E3Expansion(quickCfg())
	for _, row := range res.Tables[0].Rows {
		success, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad success cell %q", row[1])
		}
		if success < 0.8 {
			t.Fatalf("expansion success %v too low (row %v)", success, row)
		}
		arrival, _ := strconv.ParseFloat(row[2], 64)
		bound, _ := strconv.ParseFloat(row[3], 64)
		if arrival > bound {
			t.Fatalf("arrival %v exceeds bound %v", arrival, bound)
		}
		foremost, _ := strconv.ParseFloat(row[4], 64)
		if foremost > arrival {
			t.Fatalf("exact foremost %v above constructed arrival %v", foremost, arrival)
		}
	}
}

// TestE4SpreadShape: completion per ln n stays in a constant band and the
// all-informed rate is ~1.
func TestE4SpreadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res := E4Spread(quickCfg())
	for _, row := range res.Tables[0].Rows {
		ratio, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", row[5])
		}
		if ratio < 1 || ratio > 6 {
			t.Fatalf("completion/ln n = %v out of band", ratio)
		}
		rate, _ := strconv.ParseFloat(row[6], 64)
		if rate < 0.9 {
			t.Fatalf("all-informed rate %v too low", rate)
		}
	}
}

// TestE7BoxAlwaysTrue: the Claim 1 witness column must read "true" in
// every row — it is a theorem, not a probability.
func TestE7BoxAlwaysTrue(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res := E7GeneralReachability(quickCfg())
	for _, row := range res.Tables[0].Rows {
		if row[7] != "true" {
			t.Fatalf("box labeling violated Claim 1: row %v", row)
		}
	}
}

// TestE13RatioNearOne: Remark 1's directed/undirected ratio within a
// generous band.
func TestE13RatioNearOne(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res := E13Remark1(quickCfg())
	for _, row := range res.Tables[0].Rows {
		ratio, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", row[4])
		}
		if ratio < 0.7 || ratio > 1.4 {
			t.Fatalf("und/dir ratio %v far from 1 (row %v)", ratio, row)
		}
	}
}
