// Patternstudy reproduces the paper's central finding (E1) for one
// application: with the *measured* computation patterns the potential for
// automatic overlap is negligible, while the *ideal sequential* pattern
// unlocks a large benefit — and shows per-message profiles explaining why.
// Both speedups and the bandwidth search run on the suite's sweep runner,
// which traces the application once and replays each platform once.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"overlapsim"
	"overlapsim/internal/experiment"
	"overlapsim/internal/stats"
)

func main() {
	appName := flag.String("app", "bt", "application to study")
	flag.Parse()

	suite := experiment.NewSuite()
	pl, err := suite.PipelineFor(*appName)
	if err != nil {
		log.Fatal(err)
	}
	bw, err := pl.IntermediateBandwidth(suite.Machine)
	if err != nil {
		log.Fatal(err)
	}
	m := suite.Machine.WithBandwidth(bw)

	real, err := pl.Speedup(m, overlapsim.MeasuredOverlap())
	if err != nil {
		log.Fatal(err)
	}
	ideal, err := pl.Speedup(m, overlapsim.IdealOverlap())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s at intermediate bandwidth %s:\n", *appName, bw)
	fmt.Printf("  real (measured) patterns: %+.1f%%\n", stats.PercentGain(real))
	fmt.Printf("  ideal (sequential) patterns: %+.1f%%\n\n", stats.PercentGain(ideal))

	// Show why: the measured per-chunk production points of the first few
	// annotated sends, as fractions of their burst. Values near 1.0 mean
	// the data is only produced at the very end of the computation — too
	// late to send anything early.
	ps, err := pl.Profiled()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("measured production points (fraction of burst, first 5 annotated sends):")
	shown := 0
	for rank, ann := range ps.Annotations {
		idxs := make([]int, 0, len(ann))
		for idx := range ann {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs) // record order, so the output is reproducible
		for _, idx := range idxs {
			a := ann[idx]
			if a.Production == nil || shown >= 5 {
				continue
			}
			shown++
			fmt.Printf("  rank %2d record %3d: ", rank, idx)
			for _, off := range a.Production.Offsets {
				fmt.Printf("%.2f ", float64(off)/float64(a.Production.Burst))
			}
			fmt.Println()
		}
		if shown >= 5 {
			break
		}
	}
}
