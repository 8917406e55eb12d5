#ifndef FIXTURE_ORPHAN_H_
#define FIXTURE_ORPHAN_H_

// Deliberate orphan: only its own .cpp and a test include it.
inline int orphanValue() { return 4; }

#endif  // FIXTURE_ORPHAN_H_
