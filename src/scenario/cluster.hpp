#pragma once
// scenario::Cluster is scenario::Testbed: one machine class at any node
// count (see testbed.hpp). This header keeps the N-node include valid.

#include "scenario/testbed.hpp"
