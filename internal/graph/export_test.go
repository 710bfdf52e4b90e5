package graph

// ShortRow is shortRow, for the external tests.
const ShortRow = shortRow

// RowIndexed reports whether g's sparse store has allocated its row index.
func RowIndexed(g *Undirected) bool { return g.rows.(*sparseRows).rows != nil }
