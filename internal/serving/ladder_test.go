package serving

import (
	"math"
	"strings"
	"testing"
)

func TestDemoLadderRejectsNaN(t *testing.T) {
	_, err := DemoLadder([]float64{0, math.NaN()})
	if err == nil || !strings.Contains(err.Error(), "ladder ratio NaN out of [0,1]") {
		t.Fatalf("DemoLadder error = %v, want its ratio check to reject NaN", err)
	}
}
