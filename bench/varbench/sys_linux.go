package main

import (
	"os/exec"
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in nanosleep(2), which wakes within
// tens of microseconds where the runtime's timers wake about 1 ms late.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// dieWithParent makes the kernel kill cmd's process if varbench dies first,
// so a crashed or killed benchmark never leaves daemons behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
