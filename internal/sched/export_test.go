package sched

// ReferenceSlots exposes the per-machine reference fold to the external
// test package, which can import the data sets (they import sched).
var ReferenceSlots = referenceSlots
