package temporal

import (
	"fmt"
	"strings"
)

// Hop is one temporal edge of a journey: the crossing of edge Edge from
// From to To at time Label.
type Hop struct {
	From, To int
	Edge     int
	Label    int32
}

// Journey is a temporal path: a hop sequence with strictly increasing
// labels, each consecutive pair sharing the intermediate vertex.
type Journey []Hop

// ArrivalTime returns the label of the last hop, i.e. when the journey
// arrives, or 0 for the empty journey (meaning "already there at time 0").
func (j Journey) ArrivalTime() int32 {
	if len(j) == 0 {
		return 0
	}
	return j[len(j)-1].Label
}

// Validate checks that the journey is genuine in network n: every hop uses
// an existing edge carrying the hop's label in a direction the edge
// permits, consecutive hops chain on vertices, and labels strictly
// increase. It returns nil for the empty journey.
func (j Journey) Validate(n *Network) error {
	g := n.Graph()
	for i, h := range j {
		if h.Edge < 0 || h.Edge >= g.M() {
			return fmt.Errorf("hop %d: edge %d out of range", i, h.Edge)
		}
		eu, ev := g.Endpoints(h.Edge)
		switch {
		case eu == h.From && ev == h.To:
			// storage orientation: fine for both directed and undirected
		case !g.Directed() && eu == h.To && ev == h.From:
			// reversed traversal of an undirected edge
		default:
			return fmt.Errorf("hop %d: edge %d does not join %d->%d", i, h.Edge, h.From, h.To)
		}
		found := false
		for _, l := range n.EdgeLabels(h.Edge) {
			if l == h.Label {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("hop %d: edge %d has no label %d", i, h.Edge, h.Label)
		}
		if i > 0 {
			if j[i-1].To != h.From {
				return fmt.Errorf("hop %d: does not start at previous hop's end", i)
			}
			if h.Label <= j[i-1].Label {
				return fmt.Errorf("hop %d: label %d not greater than %d", i, h.Label, j[i-1].Label)
			}
		}
	}
	return nil
}

// String renders the journey as "s -(l1)-> v1 -(l2)-> … t".
func (j Journey) String() string {
	if len(j) == 0 {
		return "(empty journey)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d", j[0].From)
	for _, h := range j {
		fmt.Fprintf(&b, " -(%d)-> %d", h.Label, h.To)
	}
	return b.String()
}
