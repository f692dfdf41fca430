package temporal

// DiameterOracle exposes the linear-oracle diameter to the external test
// package, whose availability-model networks cannot be built in here.
var DiameterOracle = diameterOracle

// EndsFills reads temporal_index_builds_total{index="ends"}, the number of
// endpoint-column fills in this process.
func EndsFills() uint64 { return obsBuildEnds.Value() }

// IndexBuilds reads temporal_index_builds_total{index="timeedges"} and
// {index="vertex"}, the time-edge list and per-vertex index builds in this
// process.
func IndexBuilds() (timeEdges, vertex uint64) {
	return obsBuildTimeEdges.Value(), obsBuildVertex.Value()
}

// RaceEnabled exposes raceEnabled to the external test package, whose
// allocation-count assertions are skipped under the race detector too.
const RaceEnabled = raceEnabled
