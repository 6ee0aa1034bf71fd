package multirail

import "repro/internal/fabric"

// FabricForTest exposes the cluster's fabric to the external test
// package, which injects hand-built frames below the engine.
func (c *Cluster) FabricForTest() fabric.Fabric { return c.fab }
