// A test include does not make the header used either.
#include "low/orphan.h"

int orphanTested() { return orphanValue(); }
