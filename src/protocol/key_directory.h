// Unread shell: perfbench still builds one (ROADMAP item 20).  Each
// process holds every agent's public key in that agent's Party, and
// BroadcastPublicKey checks every announcement copy against it.
#pragma once

namespace pem::protocol {

class KeyDirectory {};

}  // namespace pem::protocol
