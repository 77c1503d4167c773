// Paramsweep reproduces the paper's central sensitivity result for two
// contrasting applications: LU (low communication, compute bound) and
// Barnes-rebuild (fine-grained locking). It sweeps the interrupt cost and
// the I/O bus bandwidth and prints the speedup series — interrupt cost hurts
// both, while bandwidth barely touches LU.
package main

import (
	"fmt"
	"log"

	"svmsim"
)

func main() {
	apps := []struct {
		name string
		mk   func() svmsim.App
	}{
		{"LU", func() svmsim.App { return svmsim.LU(svmsim.LUSmall()) }},
		{"Barnes-rebuild", func() svmsim.App { return svmsim.Barnes(svmsim.BarnesRebuildSmall()) }},
	}

	for _, a := range apps {
		base := svmsim.Achievable()
		uni, err := svmsim.Run(svmsim.Uniprocessor(base), a.mk())
		if err != nil {
			log.Fatal(err)
		}
		uniCycles := uni.Run.Cycles

		fmt.Printf("%s:\n  interrupt cost (cycles/half):", a.name)
		for _, c := range []svmsim.Time{0, 500, 2000, 10000} {
			cfg := base
			cfg.IntrHalfCostCycles = c
			res, err := svmsim.Run(cfg, a.mk())
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %d->%.2f", c, float64(uniCycles)/float64(res.Run.Cycles))
		}
		fmt.Printf("\n  I/O bandwidth (MB/s per MHz):")
		for _, bw := range []float64{0.2, 0.5, 2.0} {
			cfg := base
			cfg.Net.IOBytesPerCycle = bw
			res, err := svmsim.Run(cfg, a.mk())
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %.1f->%.2f", bw, float64(uniCycles)/float64(res.Run.Cycles))
		}
		fmt.Println()
	}
}
