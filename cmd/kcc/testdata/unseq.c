int main(void) {
	int x = 0;
	return (x = 1) + (x = 2);
}
