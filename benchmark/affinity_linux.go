//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity CPU set of 1024 CPUs.
type cpuMask [16]uint64

// startMask is the CPU set the process was started on.
var startMask = func() (m cpuMask) {
	syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m
}()

// confine restricts every thread of the process to one CPU (the
// highest-numbered it was started on) when procs is 1, and gives back the
// CPUs it was started on otherwise; threads created later inherit the set.
//
// Why: with GOMAXPROCS(1) on a 2-vCPU host the kernel still spreads the
// runtime's threads (the one running goroutines, sysmon, GC workers) over
// both CPUs, and whether they share a CPU decides which of two modes a
// trial runs in (stream: 56 us or 70-78 us per op, persisting across
// trials). Confined, one-P workloads always run in the one-CPU mode.
func confine(procs int) error {
	mask := startMask
	if procs == 1 {
		for cpu := len(mask)*64 - 1; cpu >= 0; cpu-- {
			if mask[cpu/64]&(1<<(cpu%64)) != 0 {
				mask = cpuMask{}
				mask[cpu/64] = 1 << (cpu % 64)
				break
			}
		}
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
			uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
		if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread exited meanwhile
			return fmt.Errorf("sched_setaffinity: %w", errno)
		}
	}
	return nil
}
