//go:build !linux

package main

import "errors"

// confine has no implementation off Linux: workloads run wherever the
// kernel puts them.
func confine(int) error { return errors.New("CPU affinity: not supported on this OS") }
