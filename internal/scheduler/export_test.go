package scheduler

// ReferenceOf gives the external test package the frozen reference model
// (reference_test.go).
var ReferenceOf = referenceOf
