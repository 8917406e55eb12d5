// Its own .cpp does not make the header used.
#include "low/orphan.h"

int orphanTwice() { return orphanValue() + orphanValue(); }
