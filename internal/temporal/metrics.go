package temporal

// Process-wide counters for the temporal index layer, exposed through
// internal/obs. Index rebuilds happen under idxMu, so every record here is
// a cold-path atomic — the kernels themselves stay untouched.

import "repro/internal/obs"

var obsIndexBuilds = obs.NewCounterVec("temporal_index_builds_total",
	"Lazy index rebuilds by index kind (labelsort, timeedges, vertex, ends).", "index")

var (
	obsBuildLabelSort = obsIndexBuilds.With("labelsort")
	obsBuildTimeEdges = obsIndexBuilds.With("timeedges")
	obsBuildVertex    = obsIndexBuilds.With("vertex")
	obsBuildEnds      = obsIndexBuilds.With("ends")
)
