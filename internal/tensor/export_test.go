package tensor

// HasAVX and SetAVX let the external tests run the nn forward pass on
// both GEMM/SpMM paths, and SameBits compare its outputs bit for bit.
var (
	HasAVX   = hasAVX
	SameBits = sameBits
)

// SetAVX switches the AVX tiles on or off and returns a func that
// restores the previous setting.
func SetAVX(on bool) (restore func()) {
	saved := useAVX
	useAVX = on
	return func() { useAVX = saved }
}
