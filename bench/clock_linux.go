package main

import (
	"os"
	"syscall"
	"unsafe"
)

const (
	clockMonotonic = 1 // CLOCK_MONOTONIC
	rusageThread   = 1 // RUSAGE_THREAD
)

// The benchmark runs on Linux only: the generator needs timerfd, and CPU
// accounting needs RUSAGE_THREAD.

// waker sleeps the generator on a timerfd registered with Go's network
// poller. While it waits, its goroutine is parked and its P serves the
// system under test, and the kernel's high-resolution timer wakes it
// within microseconds of the instant asked for. A plain time.Sleep can
// wake a millisecond late while the process is idle, which an open-loop
// generator would report as latency at low rates; a nanosleep keeps the
// P, so the slots it just woke, and the timers of that P, wait for it.
type waker struct {
	fd int
	f  *os.File
}

func newWaker() (*waker, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &waker{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for about d > 0 nanoseconds.
func (w *waker) sleep(d int64) error {
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(d)} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(w.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := w.f.Read(expirations[:])
	return err
}

func (w *waker) close() { w.f.Close() }

// threadCPU returns the calling thread's user+system CPU time in ns.
func threadCPU() int64 { return rusageNs(rusageThread) }

// processCPU returns the process's user+system CPU time in ns.
func processCPU() int64 { return rusageNs(syscall.RUSAGE_SELF) }

func rusageNs(who int) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// kernelRelease returns the running kernel's release string.
func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}
