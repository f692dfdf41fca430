package main

import (
	"context"
	"crypto/sha256"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service"
)

// paperWorkload runs the reproduction itself: every pass runs all 18
// drivers at quick scale through experiments.Run, as cmd/experiments
// -quick does, and encodes each result as the service's JSON payload.
var paperWorkload = passWorkload{
	name:     "paper",
	passSecs: 1.25,
	opsName:  "driver runs",
	pass:     paperPass,
	nSetups:  3,
	pins:     paperPins,
	layers:   paperLayers,
}

// paperPins are the pass digests of the default seed's timed passes at
// the default run length.
var paperPins = map[uint64]string{
	121464332919225: "79d1945d6a677463ec978e3662ca0639",
	209918902756750: "e74bd9a62d9b1016d6632c9998041caa",
	210866889821180: "b159500c00d07052301f8dccafa14ceb",
	197115100429185: "3602d8a635660cb1d88a1a1519fb93c4",
	251190196194200: "91644b36468e21face026cd14ca14b34",
	211755599762327: "991137681b218d62f5462831417718b6",
	125626144143697: "c2826465ce7029391ca2811346148218",
	4725484811324:   "af638109f995799b4d14cbd7632cedf9",
	172248076142461: "c80222f69619172b8643087b8b574226",
	211301827512239: "87ae793b62e0ea5eb79a9aa4370d6917",
	206705977290278: "f0fa9a9bf0204a3f7c401ccc0aef4ab1",
	73849224985195:  "74db62918554d406b8a75d92fe8e22ce",
	264435401137576: "78c11f0bd57d19003abb90a3c23736ba",
	92517418577718:  "d4ce92c322ccd73d41c67c1fbe7e65d2",
	20070817920428:  "1a50d9180ff7ddf5c1ae3bee1008eb0f",
	219593481632680: "78ad70a7eccd1c38e85edaad35b8706c",
}

// toyDrivers are the drivers a toy-scale pass runs.
var toyDrivers = []string{"E1", "E2", "E3", "E4", "E5", "E7", "E9", "E15"}

// paperPass runs one pass on seed. The clock, when set, times every trial
// through the drivers' progress hook.
func paperPass(ctx context.Context, seed uint64, env passEnv) (passOutcome, error) {
	var out passOutcome
	h := sha256.New()
	pass := env.tr.root("paper.pass")
	pass.SetAttrInt("seed", int64(seed))
	defer pass.End()
	ids := driverIDs
	if env.toy {
		ids = toyDrivers
	}
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return out, fmt.Errorf("experiment %s is not registered", id)
		}
		cfg := experiments.Config{Seed: seed, Quick: true, Workers: env.workers}
		if env.clock != nil {
			cfg.Progress = env.clock.tick
		}
		out.attempted++
		span := pass.Child("experiments.Run")
		span.SetAttr("id", id)
		res, meta, err := experiments.Run(ctx, e, cfg)
		span.SetError(err)
		span.End()
		if err != nil {
			return out, fmt.Errorf("%s: %w", id, err)
		}
		enc := pass.Child("table.encode")
		enc.SetAttr("id", id)
		b, err := service.NewPayload(meta, res).JSON()
		enc.End()
		if err != nil {
			return out, fmt.Errorf("%s: encode: %w", id, err)
		}
		if meta.ID != id || rowCount(res) == 0 {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s seed %d: empty or mislabelled result", id, seed))
		}
		fmt.Fprintf(h, "%s\x00%d\x00", id, len(b))
		h.Write(b)
		out.trials += meta.Trials
		out.ops++
	}
	out.digest = fmt.Sprintf("%x", h.Sum(nil)[:16])
	return out, nil
}

// rowCount is the number of table rows and figures in a result.
func rowCount(res experiments.Result) int {
	n := len(res.Figures)
	for _, t := range res.Tables {
		n += len(t.Rows)
	}
	return n
}

// paperLayers reports each driver's median experiments.Run span and the
// median per-pass total of the payload-encoding spans.
func paperLayers(recs []obs.SpanRecord, _ *layerAcc, vals map[string]float64) {
	runs := make(map[string][]float64)
	encode := make(map[obs.TraceID]float64)
	for _, r := range recs {
		switch r.Name {
		case "experiments.Run":
			id := spanAttr(r, "id")
			runs[id] = append(runs[id], float64(r.DurNS)/1e6)
		case "table.encode":
			encode[r.Trace] += float64(r.DurNS) / 1e6
		}
	}
	for _, id := range driverIDs {
		vals["experiments."+id+".ms"] = median(runs[id])
	}
	var perPass []float64
	for _, v := range encode {
		perPass = append(perPass, v)
	}
	vals["table.encode_ms"] = median(perPass)
}

// counters is a snapshot of the process-wide engine counters the traced
// run attributes work with, read through the obs default registry.
type counters map[string]float64

func readCounters() counters {
	reg := obs.Default()
	c := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	v := func(name, label, value string) float64 {
		return float64(reg.CounterVec(name, "", label).With(value).Value())
	}
	batch := c("sim_batch_resample_trials_total") + c("sim_batch_scenario_trials_total") + c("sim_batch_rebuild_trials_total")
	return counters{
		"sim.route.runner":                c("sim_trials_completed_total") - batch,
		"sim.route.resample":              c("sim_batch_resample_trials_total"),
		"sim.route.scenario":              c("sim_batch_scenario_trials_total"),
		"sim.route.rebuild":               c("sim_batch_rebuild_trials_total"),
		"sim.freelist.hits":               c("sim_worker_freelist_hits_total"),
		"sim.freelist.misses":             c("sim_worker_freelist_misses_total"),
		"temporal.index_builds.labelsort": v("temporal_index_builds_total", "index", "labelsort"),
		"temporal.index_builds.timeedges": v("temporal_index_builds_total", "index", "timeedges"),
		"temporal.index_builds.vertex":    v("temporal_index_builds_total", "index", "vertex"),
		"temporal.diameter_race.linear":   v("temporal_diameter_race_total", "winner", "linear"),
		"temporal.diameter_race.frontier": v("temporal_diameter_race_total", "winner", "frontier"),
		"temporal.relabel_edges.patch":    v("temporal_relabel_edges_total", "route", "patch"),
		"temporal.relabel_edges.rebuild":  v("temporal_relabel_edges_total", "route", "rebuild"),
		"qindex.hits":                     c("qindex_hits_total"),
		"qindex.misses":                   c("qindex_misses_total"),
		"qindex.coalesced":                c("qindex_coalesced_total"),
	}
}

// delta returns c1 − c0 per counter.
func (c counters) delta(c0 counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - c0[k]
	}
	return d
}
