package explore

// Internals the external tests in this directory drive directly.
var (
	Fire        = fire
	StubbornSet = stubbornSet
)
