package tensor

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestHasAVXMatchesCPUInfo checks the CPUID/XGETBV result against the
// kernel's view: Linux lists "avx" in /proc/cpuinfo only when the CPU has
// it and the kernel saves YMM state.
func TestHasAVXMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux-only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		want := false
		for _, f := range strings.Fields(flags) {
			want = want || f == "avx"
		}
		if hasAVX != want {
			t.Fatalf("hasAVX = %v, /proc/cpuinfo avx flag = %v", hasAVX, want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
