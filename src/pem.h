// Umbrella header: the PEM public API.
//
// Downstream users link against the `pem` CMake target and include
// this single header; fine-grained headers remain available for users
// who want only a substrate (e.g. crypto/paillier.h).
#pragma once

// Market model (plaintext oracle, incentives, parameters).
#include "market/baseline.h"
#include "market/clearing.h"
#include "market/incentives.h"
#include "market/params.h"
#include "market/stackelberg.h"

// Cryptographic substrate.
#include "crypto/bigint.h"
#include "crypto/circuit.h"
#include "crypto/commitment.h"
#include "crypto/garble.h"
#include "crypto/hash.h"
#include "crypto/ot.h"
#include "crypto/paillier.h"
#include "crypto/rng.h"
#include "crypto/secure_compare.h"

// Networking and grid simulation.
#include "grid/battery.h"
#include "grid/load_model.h"
#include "grid/solar.h"
#include "grid/trace.h"
#include "grid/types.h"
#include "net/bus.h"
#include "net/frame.h"
#include "net/message.h"
#include "net/serialize.h"
#include "net/transport.h"

// The privacy-preserving protocols and the simulation driver.
#include "core/simulation.h"
#include "ledger/settlement.h"
#include "protocol/pem_protocol.h"
#include "protocol/verifiable.h"
