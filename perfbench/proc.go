package main

import (
	"context"
	"errors"
	"os/exec"
	"syscall"
	"time"
)

// prSetChildSubreaper is prctl's PR_SET_CHILD_SUBREAPER: orphaned
// descendants are reparented to this process instead of init, so it can
// reap them.
const prSetChildSubreaper = 36

// becomeSubreaper makes this process the reaper of its orphaned
// descendants.
func becomeSubreaper() error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); e != 0 {
		return e
	}
	return nil
}

// groupCommand builds a command that runs in a process group of its own.
// When ctx ends before the command does, the whole group is killed, so no
// descendant of the command outlives it. Should this process itself be
// killed outright, the kernel kills the command too (Pdeathsig).
func groupCommand(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// waitGroup waits for a command started from groupCommand, then kills
// whatever is left of its process group and reaps every orphan reparented
// to this process. It returns when the command itself exited. Children
// must run one at a time: the reaping waits for any child of this process.
func waitGroup(cmd *exec.Cmd) (time.Time, error) {
	err := cmd.Wait()
	exited := time.Now()
	pgid := cmd.Process.Pid
	if kerr := syscall.Kill(-pgid, syscall.SIGKILL); kerr != nil && !errors.Is(kerr, syscall.ESRCH) {
		return exited, errors.Join(err, kerr)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		reapOrphans()
		// A zombie still counts as a group member, so an empty group means
		// every descendant has exited and been reaped.
		if syscall.Kill(-pgid, 0) != nil {
			return exited, err
		}
		if time.Now().After(deadline) {
			return exited, errors.Join(err, errors.New("process group still alive after kill"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// reapOrphans collects every exited child without blocking.
func reapOrphans() {
	for {
		var ws syscall.WaitStatus
		pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil)
		if pid <= 0 || err != nil {
			return
		}
	}
}
