//go:build !linux

package main

import "runtime"

// kernelRelease names the operating system where no release is read.
func kernelRelease() string { return runtime.GOOS }
