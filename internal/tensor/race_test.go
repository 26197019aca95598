//go:build race

package tensor

// raceBuild reports whether the tests run under the race detector.
const raceBuild = true
