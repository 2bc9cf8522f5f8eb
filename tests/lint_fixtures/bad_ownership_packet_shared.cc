// NetPacket ref-counting outside src/nic/ and src/net/: a packet
// moves by value, one owner at a time, and a stray shared_ptr handle
// elsewhere would keep a packet alive after its owner passed it on.
#include <memory>

struct NetPacket
{
    int bytes;
};

std::shared_ptr<NetPacket>
stash()
{
    return std::make_shared<NetPacket>();
}
