package comm

// Topology is kept only because benchmark/ compiles against it (ROADMAP
// item 4's shim rule): its meternet wrapper forwards a transport's
// Topology() when it has one, and none does any more. It goes when the
// benchmark moves off it.
type Topology string
