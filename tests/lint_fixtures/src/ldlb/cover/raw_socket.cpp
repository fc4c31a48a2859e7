// Fixture: raw-socket — a bare socket(2); no library file may open one.
#include <sys/socket.h>

namespace ldlb {

int open_unaudited() { return socket(AF_INET, SOCK_STREAM, 0); }

}  // namespace ldlb
