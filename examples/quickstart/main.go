// Quickstart: build a small temporal network by hand, ask for foremost
// journeys, and check the Treach property — the five-minute tour of the
// library's core types.
package main

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/temporal"
)

func main() {
	// A five-vertex undirected network:
	//
	//	0 --- 1 --- 2
	//	       \   /
	//	        3 --- 4
	b := graph.NewBuilder(5, false)
	e01 := b.AddEdge(0, 1)
	e12 := b.AddEdge(1, 2)
	e13 := b.AddEdge(1, 3)
	e23 := b.AddEdge(2, 3)
	e34 := b.AddEdge(3, 4)
	g := b.Build()

	// Each edge is available at the listed discrete times (lifetime 10).
	sets := make([][]int, g.M())
	sets[e01] = []int{2, 7}
	sets[e12] = []int{4}
	sets[e13] = []int{3}
	sets[e23] = []int{5}
	sets[e34] = []int{6, 9}
	net := temporal.MustNew(g, 10, temporal.LabelingFromSets(sets))
	fmt.Println(net)

	// Foremost journeys: earliest arrival at every vertex from 0.
	arr := net.EarliestArrivals(0)
	fmt.Println("\nearliest arrivals from vertex 0:")
	for v, a := range arr {
		if a == temporal.Unreachable {
			fmt.Printf("  vertex %d: unreachable\n", v)
			continue
		}
		fmt.Printf("  vertex %d: t=%d\n", v, a)
	}

	// One concrete foremost journey, with its hop-by-hop labels.
	j, ok := net.ForemostJourney(0, 4)
	if !ok {
		panic("vertex 4 should be reachable")
	}
	fmt.Printf("\nforemost journey 0→4: %v (arrives at %d)\n", j, j.ArrivalTime())
	if err := j.Validate(net); err != nil {
		panic(err)
	}

	// Does this labeling preserve all of the graph's reachability?
	fmt.Printf("\nTreach (every static path has a journey): %v\n", temporal.SatisfiesTreachSerial(net, nil))

	// Time edges stream in label order — the substrate every algorithm
	// in this repository scans.
	fmt.Println("\ntime edges in label order:")
	net.TimeEdges(func(e, u, v int, l int32) {
		fmt.Printf("  t=%d: {%d,%d}\n", l, u, v)
	})
}
