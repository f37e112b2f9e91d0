package parallel

import (
	"reflect"
	"testing"
)

func TestTPSizes(t *testing.T) {
	if got := TPSizes(8); !reflect.DeepEqual(got, []int{1, 2, 4, 8}) {
		t.Errorf("TPSizes(8) = %v", got)
	}
}

func TestModelParallelWidth(t *testing.T) {
	c := Plain(4, 1, 1)
	if c.ModelParallelWidth() != 4 {
		t.Error("TP width expected")
	}
}

// TestConfigString pins the rendering plan output prints and the GPU
// count every resource constraint sums.
func TestConfigString(t *testing.T) {
	c := Plain(4, 3, 2)
	if got := c.GPUs(); got != 24 {
		t.Errorf("GPUs = %d, want TP*PP*DP = 24", got)
	}
	if got := c.String(); got != "TP=4 PP=3 DP=2" {
		t.Errorf("String = %q", got)
	}
	c.VPP, c.SP = 2, true
	if got := c.String(); got != "TP=4 PP=3 DP=2 VPP=2 SP" {
		t.Errorf("String with extensions = %q", got)
	}
}
