// Command disttrain-bench regenerates the paper's evaluation tables
// and figures.
//
// Examples:
//
//	disttrain-bench -experiment fig13
//	disttrain-bench -experiment all -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"disttrain/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID (fig3, fig5, fig13..fig19, fig22, table2, table3) or all")
		quick      = flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "disttrain-bench: unexpected argument %q (select an experiment with -experiment)\n", flag.Arg(0))
		os.Exit(1)
	}

	ids := experiments.Order
	if *experiment != "all" {
		ids = []string{*experiment}
	}
	for _, id := range ids {
		start := time.Now()
		tb, err := experiments.Run(id, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "disttrain-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(tb.Render())
		fmt.Printf("  (regenerated in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
}
