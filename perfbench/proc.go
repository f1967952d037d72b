package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds any single child process; the whole benchmark must
// finish well inside three minutes.
const childTimeout = 150 * time.Second

// usage is what one finished child process cost.
type usage struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	maxRSS int64         // bytes
}

// usageOf reads CPU time and peak RSS from a finished command.
func usageOf(cmd *exec.Cmd, wall time.Duration) usage {
	u := usage{wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSS = ru.Maxrss << 10 // Linux reports kilobytes
	}
	return u
}

// runChild runs a program to completion with its standard output captured
// and returns the output and the process's cost.
func runChild(ctx context.Context, dir, path string, args ...string) ([]byte, usage, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = childAttr()
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, usage{}, fmt.Errorf("%s %s: %w", path, strings.Join(args, " "), err)
	}
	return out.Bytes(), usageOf(cmd, time.Since(start)), nil
}

// childAttr makes the kernel kill a child if the benchmark dies first, so
// an interrupted run leaves no rfcd or rfcpaper behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux platform Go supports).
const clockTick = 10 * time.Millisecond

// procCPU returns the user + system CPU time a live process has used so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu times in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}
