package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ).
const clockTick = 10 * time.Millisecond

// processTreeCPU returns the CPU time, user plus system, used so far by
// this process and every process it started: itself, the children it has
// waited for (which include their own waited-for descendants: the Go
// compiler and linker under go build), and the children still running
// (pooled simulation workers), read from /proc. Unlike wall time it does
// not grow while the host or other processes hold the CPU, so it measures
// the work a job costs rather than how busy the machine was.
//
// The difference of two readings is exact when no child exits between
// reading /proc and getrusage; the benchmark reads it only between jobs.
func processTreeCPU() time.Duration {
	var self, children syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &children)
	total := tv(self.Utime) + tv(self.Stime) + tv(children.Utime) + tv(children.Stime)
	return total + liveChildrenCPU(os.Getpid())
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// liveChildrenCPU sums the CPU time of the not yet waited-for children of
// pid, including what their own waited-for children used.
func liveChildrenCPU(pid int) time.Duration {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	var total time.Duration
	for _, e := range entries {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // exited since the directory was read
		}
		// The command name (field 2) is parenthesised and may hold spaces;
		// fields 3 on follow the last ')'.
		i := bytes.LastIndexByte(data, ')')
		if i < 0 {
			continue
		}
		f := bytes.Fields(data[i+1:])
		// f[0] is field 3 (state): ppid is field 4, utime..cstime 14..17.
		if len(f) < 15 {
			continue
		}
		if ppid, _ := strconv.Atoi(string(f[1])); ppid != pid {
			continue
		}
		for _, s := range f[11:15] {
			n, _ := strconv.ParseInt(string(s), 10, 64)
			total += time.Duration(n) * clockTick
		}
	}
	return total
}
