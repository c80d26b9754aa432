package main

import (
	"syscall"
	"time"
)

// The benchmark reads two clocks. Wall time is what a user waits;
// process CPU time is the work the program did. On a shared host the
// hypervisor takes virtual CPUs away for stretches (steal time): wall
// time then swells, by up to 2x for minutes on the 2-core reference
// box, while CPU time does not. The bounded timing metrics are
// therefore taken on the CPU clock, and the wall-clock figures are
// printed beside them and reported by the traced run.

// stamp is a reading of both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return stamp{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// times collects the wall and CPU milliseconds of a run's ok ops.
type times struct{ wall, cpu []float64 }

// add records an op that began at s and ended at e.
func (t *times) add(s, e stamp) {
	t.wall = append(t.wall, ms(e.wall.Sub(s.wall)))
	t.cpu = append(t.cpu, ms(e.cpu-s.cpu))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
