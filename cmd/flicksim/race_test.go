//go:build race

package main

// raceBuild reports whether the test binary runs under the race detector.
const raceBuild = true
