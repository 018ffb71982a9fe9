//go:build !linux

package main

import (
	"os/exec"
	"time"
)

// preciseSleep falls back to the runtime's timers off Linux.
func preciseSleep(d time.Duration) { time.Sleep(d) }

// dieWithParent has no portable equivalent; stop still ends every process.
func dieWithParent(*exec.Cmd) {}
