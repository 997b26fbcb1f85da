package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// alarm wakes a goroutine at a given time with microsecond precision.
// Go's timers fire up to a millisecond late on an idle host, which would
// dwarf the latencies an open loop measures from due time, and a
// nanosleep holds the goroutine's P for the whole sleep, starving the
// cluster's goroutines on a 2-CPU host. A timerfd read parks the
// goroutine in the runtime's network poller instead, which epoll wakes
// as soon as the timer expires.
type alarm struct {
	f   *os.File
	fd  uintptr // kept apart: f.Fd() would switch f to blocking reads
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdAbstime     = 1
)

type itimerspec struct{ interval, value syscall.Timespec }

func newAlarm() (*alarm, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor is served by the runtime poller.
	return &alarm{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

func monotonicNow() int64 {
	var ts syscall.Timespec
	// clock_gettime(CLOCK_MONOTONIC) does not fail with a valid pointer.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockMonotonic, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// sleepUntil blocks until t.
func (a *alarm) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(monotonicNow() + int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, tfdAbstime,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if _, err := a.f.Read(a.buf[:]); err != nil {
		return fmt.Errorf("read timerfd: %w", err)
	}
	return nil
}

func (a *alarm) close() { a.f.Close() }
