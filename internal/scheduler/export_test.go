package scheduler

import "github.com/hopper-sim/hopper/internal/cluster"

// Engine is the contract the tests drive a centralized scheduler
// through: the method set of experiments.Arriver, which the scheduler
// package cannot import.
type Engine interface {
	Name() string
	Arrive(j *cluster.Job)
	Completed() []*cluster.Job
}

// ReferenceOf gives the external test package the frozen reference model
// (reference_test.go).
var ReferenceOf = referenceOf
