package main

import (
	"runtime"
	"syscall"
	"time"
)

// prctl options for the calling thread's timer slack.
const (
	prSetTimerSlack = 29
	prGetTimerSlack = 30
)

// precisePacing pins the calling goroutine to its thread and shrinks the
// thread's timer slack to 1µs, so sleepFor wakes within tens of
// microseconds. The runtime's own timers wake about a millisecond late
// on Linux, as late as the gaps between requests at the offered rate.
// The returned function undoes both.
func precisePacing() func() {
	runtime.LockOSThread()
	var old uintptr
	if v, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0); errno == 0 {
		old = v
	}
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return func() {
		if old != 0 {
			syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, old, 0)
		}
		runtime.UnlockOSThread()
	}
}

// sleepFor blocks the thread in nanosleep for d.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
