package smbo

// EIBound and EIFloor expose PickNext's pruning rule, and Xorshift01 the
// Random policy's generator, to the external test package.
var (
	EIBound    = eiBound
	EIFloor    = eiFloor
	Xorshift01 = xorshift01
)
