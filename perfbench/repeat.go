package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
)

// repeatMode runs the workload o.repeat times per set, each run a child
// process on its own seed (o.seed, o.seed+1, …), and prints for every
// metric the median, quartiles and spread of each set. With two sets it
// also prints how far the second set's median is worse than the first's.
// Against the end-to-end bounds it marks every spread above its bound,
// and every set comparison worse than its bound, and then exits 1.
func repeatMode(ctx context.Context, o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defs := endToEnd
	trace := "0"
	if o.trace {
		defs, trace = perLayer, "1"
	}
	sets := make([]map[string][]float64, o.sets)
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for s := range sets {
		sets[s] = make(map[string][]float64)
		for i := 0; i < o.repeat; i++ {
			seed := o.seed + uint64(s*o.repeat+i)
			args := []string{"-workload", o.workload, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-out", o.out}
			if o.toy {
				args = append(args, "-toy")
			}
			var r result
			lines, err := runChild(ctx, exe, args, &r)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: repeat run seed %d: %v\n", seed, err)
				return 1
			}
			for _, l := range lines {
				fmt.Fprintf(stdout, "  %s\n", l)
			}
			total.Attempted += r.Attempted
			total.Failed += r.Failed
			total.Correct = total.Correct && r.Correct
			fmt.Fprintf(stdout, "run set=%d seed=%d correct=%t attempted=%d failed=%d", s+1, seed, r.Correct, r.Attempted, r.Failed)
			for _, d := range defs {
				v := r.Metrics[d.Name].Value
				sets[s][d.Name] = append(sets[s][d.Name], v)
				fmt.Fprintf(stdout, " %s=%.6g", d.Name, v)
			}
			fmt.Fprintln(stdout)
		}
	}

	steady := true
	fmt.Fprintf(stdout, "%-34s %-6s %4s %12s %12s %12s %8s %7s\n", "metric", "unit", "set", "q1", "median", "q3", "spread", "bound")
	for _, d := range defs {
		for s := range sets {
			xs := sets[s][d.Name]
			if len(xs) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			sp := spread(xs)
			mark := ""
			if d.Bound > 0 && d.Name != "setup_s" && sp > d.Bound {
				mark, steady = " OVER BOUND", false
			}
			fmt.Fprintf(stdout, "%-34s %-6s %4d %12.6g %12.6g %12.6g %8.4f %7.3g%s\n",
				d.Name, d.Unit, s+1, q1, q2, q3, sp, d.Bound, mark)
		}
		if len(sets) == 2 {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			w := worseBy(a, b, d.Better)
			mark := ""
			if d.Bound > 0 && w > d.Bound {
				mark, steady = " WORSE THAN BOUND", false
			}
			fmt.Fprintf(stdout, "%-34s second set's median is worse by %+.4f of the first's (bound %.3g)%s\n",
				d.Name, w, d.Bound, mark)
		}
		total.Metrics[d.Name] = metricValue{Value: median(sets[0][d.Name]), Unit: d.Unit}
	}
	if err := writeLine(stdout, total); err != nil {
		return 1
	}
	if !total.Correct || !steady {
		return 1
	}
	return 0
}
