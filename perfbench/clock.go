package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPU is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPU = 2

// cpuNow returns the CPU time all threads of this process have used so far.
// The benchmark times operations and set-up on this clock, not on the wall
// clock: on a virtual machine the wall clock also counts the time the host
// runs other guests on this guest's CPUs (steal time), which rises and
// falls over minutes on a shared host, while the kernel leaves steal time
// out of a process's CPU time. Every timed operation is sequential, so on
// a machine of its own its CPU time is its latency; garbage collection and
// the idle spinning of the Go scheduler during the operation are counted
// too.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
