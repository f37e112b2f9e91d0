package stepccl_test

import (
	"fmt"

	"disttrain/internal/stepccl"
)

// ExampleHiddenFraction walks the GEMM/all-gather ratio of Figure 20
// at 8 chunks: once the GEMM outlasts its all-gather, every chunk
// transfer but the first hides behind compute (7/8); below that, the
// overlap hides 7/8 of the GEMM's worth of communication.
func ExampleHiddenFraction() {
	for _, gemm := range []float64{10, 2, 1, 0.5, 0.25} {
		fmt.Printf("GEMM/comm %5.2f: %.1f%% of the all-gather hidden\n", gemm, 100*stepccl.HiddenFraction(gemm, 1))
	}
	// Output:
	// GEMM/comm 10.00: 87.5% of the all-gather hidden
	// GEMM/comm  2.00: 87.5% of the all-gather hidden
	// GEMM/comm  1.00: 87.5% of the all-gather hidden
	// GEMM/comm  0.50: 43.8% of the all-gather hidden
	// GEMM/comm  0.25: 21.9% of the all-gather hidden
}
